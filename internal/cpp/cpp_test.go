package cpp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"jmake/internal/fstree"
)

// mapSource is a Source backed by a map.
type mapSource map[string]string

func (m mapSource) ReadHashed(p string) (string, uint64, bool) {
	c, ok := m[p]
	return c, fstree.Hash(c), ok
}

// run preprocesses main.c from the given file set and returns the output.
func run(t *testing.T, files map[string]string, opts Options) Result {
	t.Helper()
	res, err := Preprocess(mapSource(files), "main.c", opts)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return res
}

// body strips line markers and blank lines, returning the code lines.
func body(res Result) []string {
	var out []string
	for _, ln := range strings.Split(res.Output, "\n") {
		if ln == "" || strings.HasPrefix(ln, "# ") {
			continue
		}
		out = append(out, ln)
	}
	return out
}

func TestPassThrough(t *testing.T) {
	res := run(t, map[string]string{"main.c": "int x = 1;\nint y = 2;\n"}, Options{})
	want := []string{"int x = 1;", "int y = 2;"}
	if got := body(res); !reflect.DeepEqual(got, want) {
		t.Errorf("body = %v, want %v", got, want)
	}
}

func TestObjectMacro(t *testing.T) {
	src := "#define N 42\nint x = N;\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	if got := body(res); !reflect.DeepEqual(got, []string{"int x = 42;"}) {
		t.Errorf("body = %v", got)
	}
}

// A replacement's first token takes the invocation's leading whitespace,
// never the body's: the bodies below start after extra whitespace with a
// # operand, a ## chain and a parameter whose argument is empty.
func TestFunctionMacroWithArgs(t *testing.T) {
	tests := []struct {
		src  string
		want []string
	}{
		{"#define MUX(x) (((x) & 0xf) << 4)\nint v = MUX(chan);\n",
			[]string{"int v = (((chan) & 0xf) << 4);"}},
		{"#define S(x)   #x\nchar*s=S(a b);\nchar *t = S( c );\n",
			[]string{`char*s="a b";`, `char *t = "c";`}},
		{"#define P(a, b)  a ## b\nint x=P(c, d);\nint y = P(, e)+P(f, );\n",
			[]string{"int x=cd;", "int y = e+f;"}},
		{"#define F(a, b)  a b\nint z=F(, w);\nint u = F( , v );\n",
			[]string{"int z=w;", "int u = v;"}},
		{"#define E(a)\t\ta\nint q=E(r)+E();\n",
			[]string{"int q=r+;"}},
	}
	for _, tt := range tests {
		res := run(t, map[string]string{"main.c": tt.src}, Options{})
		if got := body(res); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%q: body = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestNestedMacros(t *testing.T) {
	// Mirrors Fig. 1 of the paper: nested macros inline at use sites.
	src := `#define HI(x) (((x) & 0xf) << 4)
#define LO(x) (((x) & 0xf) << 0)
#define SINGLE(x) (HI(x) | LO(x))
int v = SINGLE(chan);
`
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := body(res)
	if len(got) != 1 || !strings.Contains(got[0], "((((chan) & 0xf) << 4) | (((chan) & 0xf) << 0))") {
		t.Errorf("body = %v", got)
	}
}

func TestRecursiveMacroBlocked(t *testing.T) {
	src := "#define X X + 1\nint v = X;\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := body(res)
	if len(got) != 1 || !strings.Contains(got[0], "X + 1") {
		t.Errorf("self-referential macro: body = %v", got)
	}
}

func TestIndirectRecursionBlocked(t *testing.T) {
	src := "#define A B\n#define B A\nint v = A;\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := body(res)
	if len(got) != 1 || !strings.Contains(got[0], "A") {
		t.Errorf("mutually recursive macros: body = %v", got)
	}
}

func TestStringify(t *testing.T) {
	src := `#define STR(x) #x
const char *s = STR(hello world);
const char *q = STR("quoted");
`
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := body(res)
	if !strings.Contains(got[0], `"hello world"`) {
		t.Errorf("stringify: %v", got[0])
	}
	if !strings.Contains(got[1], `"\"quoted\""`) {
		t.Errorf("stringify escaping: %v", got[1])
	}
}

func TestTokenPaste(t *testing.T) {
	src := `#define GLUE(a, b) a##b
int GLUE(foo, bar) = 1;
#define FIELD(n) reg_##n
int x = FIELD(ctrl);
`
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := body(res)
	if !strings.Contains(got[0], "foobar") {
		t.Errorf("paste: %v", got[0])
	}
	if !strings.Contains(got[1], "reg_ctrl") {
		t.Errorf("paste with literal: %v", got[1])
	}
}

func TestVariadicMacro(t *testing.T) {
	src := `#define pr(fmt, ...) printk(fmt, __VA_ARGS__)
pr("x=%d y=%d", 1, 2);
`
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := body(res)
	if !strings.Contains(got[0], `printk("x=%d y=%d", 1, 2)`) {
		t.Errorf("variadic: %v", got[0])
	}
}

func TestConditionals(t *testing.T) {
	src := `#define A 1
#if A
int yes_a;
#else
int no_a;
#endif
#ifdef B
int yes_b;
#elif A > 0
int elif_taken;
#else
int else_b;
#endif
#ifndef B
int not_b;
#endif
`
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := strings.Join(body(res), "\n")
	for _, want := range []string{"int yes_a;", "int elif_taken;", "int not_b;"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
	for _, notWant := range []string{"no_a", "yes_b", "else_b"} {
		if strings.Contains(got, notWant) {
			t.Errorf("unexpected %q in output:\n%s", notWant, got)
		}
	}
}

func TestIfZeroAndNestedSkipping(t *testing.T) {
	src := `#if 0
#ifdef ANYTHING
int dead1;
#else
int dead2;
#endif
int dead3;
#endif
int alive;
`
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := strings.Join(body(res), "\n")
	if strings.Contains(got, "dead") {
		t.Errorf("#if 0 region leaked: %s", got)
	}
	if !strings.Contains(got, "alive") {
		t.Errorf("missing live code: %s", got)
	}
}

func TestIfExpressionOperators(t *testing.T) {
	tests := []struct {
		expr string
		take bool
	}{
		{"1 + 1 == 2", true},
		{"3 * 4 != 12", false},
		{"(1 << 4) == 16", true},
		{"10 % 3 == 1", true},
		{"!defined(FOO)", true},
		{"defined FOO || defined BAR", true}, // BAR defined below
		{"UNDEFINED_IDENT", false},
		{"UNDEFINED + 1", true},
		{"1 ? 2 : 0", true},
		{"0 ? 2 : 0", false},
		{"~0 & 1", true},
		{"-1 < 0", true},
		{"'A' == 65", true},
		{"0x10 == 16", true},
		{"010 == 8", true},
		{"1UL == 1", true},
		{"0 && (1/0)", false}, // short-circuit suppresses division by zero
		{"1 || (1/0)", true},
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			src := "#define BAR 1\n#if " + tt.expr + "\nint taken;\n#endif\n"
			res := run(t, map[string]string{"main.c": src}, Options{})
			got := strings.Contains(res.Output, "taken")
			if got != tt.take {
				t.Errorf("#if %s: taken = %v, want %v", tt.expr, got, tt.take)
			}
		})
	}
}

// TestIfExpressionGrammarEdges pins the evaluator's behavior where it
// differs from plain arithmetic: a `defined` produced by macro expansion
// tests the macro table (gcc's behavior), ?: short-circuits, and errors
// keep the preprocessor's position and message.
func TestIfExpressionGrammarEdges(t *testing.T) {
	taken := []struct {
		expr string
		take bool
	}{
		{"HAS_BAR", true},
		{"HAS_FOO", false},
		{"1 ? 1 : (1/0)", true},
		{"0 ? (1/0) : 0", false},
	}
	for _, tt := range taken {
		src := "#define BAR 1\n#define HAS_BAR defined(BAR)\n#define HAS_FOO defined FOO\n" +
			"#if " + tt.expr + "\nint taken;\n#endif\n"
		res := run(t, map[string]string{"main.c": src}, Options{})
		if got := strings.Contains(res.Output, "taken"); got != tt.take {
			t.Errorf("#if %s: taken = %v, want %v", tt.expr, got, tt.take)
		}
	}
	for expr, want := range map[string]string{
		"1 / 0":   "main.c:1: division by zero in #if expression",
		"1 +":     "main.c:1: unexpected end of #if expression",
		"(1":      "main.c:1: missing ')' in #if expression",
		"1 2":     "main.c:1: unexpected token \"2\" in #if expression",
		"1 ? 2":   "main.c:1: missing ':' in ternary expression",
		"0x1g":    "main.c:1: bad integer \"0x1g\" in #if expression",
		"defined": "main.c:1: operator \"defined\" requires an identifier",
	} {
		_, err := Preprocess(mapSource{"main.c": "#if " + expr + "\n#endif\n"}, "main.c", Options{})
		if err == nil || err.Error() != want {
			t.Errorf("#if %s: err = %v, want %q", expr, err, want)
		}
	}
}

func TestIncludeSearchOrder(t *testing.T) {
	files := map[string]string{
		"main.c":              "#include \"local.h\"\n#include <linux/sys.h>\nint v = LOCAL + SYS;\n",
		"local.h":             "#define LOCAL 1\n",
		"include/linux/sys.h": "#define SYS 2\n",
	}
	res := run(t, files, Options{IncludeDirs: []string{"include"}})
	got := body(res)
	if len(got) != 1 || !strings.Contains(got[0], "1 + 2") {
		t.Errorf("include: %v", got)
	}
	if res.Includes != 3 {
		t.Errorf("Includes = %d, want 3", res.Includes)
	}
}

func TestQuotedIncludeRelativeToIncluder(t *testing.T) {
	files := map[string]string{
		"main.c":          "#include <drv/top.h>\nint v = INNER;\n",
		"inc/drv/top.h":   "#include \"inner.h\"\n",
		"inc/drv/inner.h": "#define INNER 7\n",
	}
	res := run(t, files, Options{IncludeDirs: []string{"inc"}})
	if got := body(res); !strings.Contains(strings.Join(got, ""), "7") {
		t.Errorf("relative include: %v", got)
	}
}

func TestIncludeGuards(t *testing.T) {
	files := map[string]string{
		"main.c": "#include \"g.h\"\n#include \"g.h\"\nint v = G;\n",
		"g.h":    "#ifndef G_H\n#define G_H\n#define G 3\n#endif\n",
	}
	res := run(t, files, Options{})
	if got := body(res); !strings.Contains(strings.Join(got, ""), "3") {
		t.Errorf("include guard: %v", got)
	}
}

func TestMissingInclude(t *testing.T) {
	_, err := Preprocess(mapSource{"main.c": "#include <missing.h>\n"}, "main.c", Options{})
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Errorf("missing include err = %v", err)
	}
	var perr *Error
	if !errors.As(err, &perr) {
		t.Fatalf("error type = %T, want *Error", err)
	}
	if perr.File != "main.c" || perr.Line != 1 {
		t.Errorf("error position = %s:%d", perr.File, perr.Line)
	}
}

func TestErrorDirective(t *testing.T) {
	src := "#ifdef BAD\n#error this arch is unsupported\n#endif\nint ok;\n"
	if _, err := Preprocess(mapSource{"main.c": src}, "main.c", Options{}); err != nil {
		t.Errorf("skipped #error should not fire: %v", err)
	}
	_, err := Preprocess(mapSource{"main.c": src}, "main.c", Options{Defines: map[string]string{"BAD": "1"}})
	if err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Errorf("active #error: err = %v", err)
	}
}

func TestWarningDirective(t *testing.T) {
	res := run(t, map[string]string{"main.c": "#warning deprecated api\nint x;\n"}, Options{})
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "deprecated api") {
		t.Errorf("Warnings = %v", res.Warnings)
	}
}

func TestUndef(t *testing.T) {
	src := "#define X 1\n#undef X\n#ifdef X\nint defined_x;\n#endif\nint X;\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := strings.Join(body(res), "\n")
	if strings.Contains(got, "defined_x") {
		t.Errorf("#undef ignored: %s", got)
	}
	if !strings.Contains(got, "int X;") {
		t.Errorf("undef'd name should stay literal: %s", got)
	}
}

func TestUnterminatedIf(t *testing.T) {
	_, err := Preprocess(mapSource{"main.c": "#if 1\nint x;\n"}, "main.c", Options{})
	if err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Errorf("unterminated #if: err = %v", err)
	}
}

func TestElseWithoutIf(t *testing.T) {
	for _, d := range []string{"#else", "#endif", "#elif 1"} {
		_, err := Preprocess(mapSource{"main.c": d + "\n"}, "main.c", Options{})
		if err == nil {
			t.Errorf("%s without #if should fail", d)
		}
	}
}

func TestLineSplicingInMacro(t *testing.T) {
	src := "#define LONG(x) \\\n\t((x) + \\\n\t 1)\nint v = LONG(2);\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := body(res)
	if len(got) != 1 || !strings.Contains(got[0], "((2) + 1)") {
		t.Errorf("spliced macro: %v", got)
	}
}

func TestCommentsStripped(t *testing.T) {
	src := "int a; // trailing\n/* block */ int b;\nint /* mid */ c;\n/* multi\nline */ int d;\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := strings.Join(body(res), "\n")
	if strings.Contains(got, "trailing") || strings.Contains(got, "block") || strings.Contains(got, "multi") {
		t.Errorf("comments leaked: %s", got)
	}
	for _, want := range []string{"int a;", "int b;", "int c;", "int d;"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q: %s", want, got)
		}
	}
}

func TestCommentMarkersInStringsPreserved(t *testing.T) {
	src := "const char *s = \"not /* a comment */\";\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := body(res)
	if !strings.Contains(got[0], "/* a comment */") {
		t.Errorf("string content damaged: %v", got)
	}
}

// The property JMake depends on (paper §III-A): a mutation token with an
// invalid character survives preprocessing verbatim, both in plain code and
// through macro expansion, but never appears when its region is excluded.
func TestMutationPassThrough(t *testing.T) {
	mut := `@"define:drivers/a.c:49"`
	src := "#define HI(x) ((x) << 4) " + mut + "\nint v = HI(2);\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	if !strings.Contains(res.Output, mut) {
		t.Errorf("mutation lost through macro expansion:\n%s", res.Output)
	}

	src2 := "@\"other:drivers/a.c:10\"\nint w;\n"
	res2 := run(t, map[string]string{"main.c": src2}, Options{})
	if !strings.Contains(res2.Output, `@"other:drivers/a.c:10"`) {
		t.Errorf("plain mutation lost:\n%s", res2.Output)
	}

	src3 := "#ifdef NOT_SET\n@\"other:drivers/a.c:2\"\nint dead;\n#endif\nint live;\n"
	res3 := run(t, map[string]string{"main.c": src3}, Options{})
	if strings.Contains(res3.Output, "@\"other") {
		t.Errorf("mutation leaked from dead region:\n%s", res3.Output)
	}
}

func TestMutationInUnusedMacroAbsent(t *testing.T) {
	mut := `@"define:drivers/a.c:1"`
	src := "#define UNUSED(x) ((x)+1) " + mut + "\nint v = 2;\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	if strings.Contains(res.Output, mut) {
		t.Errorf("mutation from unused macro should not appear:\n%s", res.Output)
	}
}

func TestLineMarkers(t *testing.T) {
	files := map[string]string{
		"main.c": "int a;\n#include \"h.h\"\nint b;\n",
		"h.h":    "int in_header;\n",
	}
	res := run(t, files, Options{})
	out := res.Output
	for _, want := range []string{"# 1 \"main.c\"", "# 1 \"h.h\" 1", "# 3 \"main.c\" 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing line marker %q in:\n%s", want, out)
		}
	}
}

func TestLineAndFileMacros(t *testing.T) {
	src := "int a;\nconst char *f = __FILE__;\nint l = __LINE__;\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := strings.Join(body(res), "\n")
	if !strings.Contains(got, `"main.c"`) {
		t.Errorf("__FILE__: %s", got)
	}
	if !strings.Contains(got, "int l = 3;") {
		t.Errorf("__LINE__: %s", got)
	}
}

func TestPredefines(t *testing.T) {
	src := "#ifdef CONFIG_FOO\nint foo_on = CONFIG_FOO;\n#endif\n"
	res := run(t, map[string]string{"main.c": src}, Options{Defines: map[string]string{"CONFIG_FOO": "1"}})
	if got := strings.Join(body(res), ""); !strings.Contains(got, "foo_on = 1") {
		t.Errorf("predefine: %s", got)
	}
}

func TestIncludeDepthLimit(t *testing.T) {
	files := map[string]string{"main.c": "#include \"main.c\"\n"}
	_, err := Preprocess(mapSource(files), "main.c", Options{})
	if err == nil || !strings.Contains(err.Error(), "nested too deeply") {
		t.Errorf("self-include: err = %v", err)
	}
}

func TestMacroArgCountMismatch(t *testing.T) {
	src := "#define F(a, b) a + b\nint v = F(1);\n"
	_, err := Preprocess(mapSource{"main.c": src}, "main.c", Options{})
	if err == nil || !strings.Contains(err.Error(), "requires 2 arguments") {
		t.Errorf("arg mismatch: err = %v", err)
	}
}

func TestFuncMacroWithoutParensStaysLiteral(t *testing.T) {
	src := "#define F(x) x\nint (*fp)(int) = F;\nint v = F(3);\n"
	res := run(t, map[string]string{"main.c": src}, Options{})
	got := body(res)
	if !strings.Contains(got[0], "= F;") {
		t.Errorf("bare func-macro name should stay: %v", got)
	}
	if !strings.Contains(got[1], "= 3;") {
		t.Errorf("call should expand: %v", got)
	}
}

func TestInputLinesCounted(t *testing.T) {
	files := map[string]string{
		"main.c": "#include \"h.h\"\nint a;\nint b;\n",
		"h.h":    "int h1;\nint h2;\n",
	}
	res := run(t, files, Options{})
	if res.InputLines != 5 {
		t.Errorf("InputLines = %d, want 5", res.InputLines)
	}
}

func TestLexKinds(t *testing.T) {
	toks := Lex(`ident 0x1f "str" 'c' += @ ...`)
	wantKinds := []Kind{KindIdent, KindNumber, KindString, KindChar, KindPunct, KindOther, KindPunct}
	if len(toks) != len(wantKinds) {
		t.Fatalf("Lex produced %d tokens: %+v", len(toks), toks)
	}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q) kind = %d, want %d", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestRenderTokensSpacing(t *testing.T) {
	// "a + b" must not render as "a+b" when tokens carry WS, and adjacent
	// identifiers must stay separated even without WS flags.
	toks := []Token{
		{Kind: KindIdent, Text: "unsigned"},
		{Kind: KindIdent, Text: "int"},
		{Kind: KindIdent, Text: "x", WS: true},
		{Kind: KindPunct, Text: "="},
		{Kind: KindNumber, Text: "1"},
		{Kind: KindPunct, Text: ";"},
	}
	got := renderTokens(toks)
	if !strings.Contains(got, "unsigned int") {
		t.Errorf("identifiers merged: %q", got)
	}
	if relexed := Lex(got); len(relexed) != len(toks) {
		t.Errorf("re-lexing %q produced %d tokens, want %d", got, len(relexed), len(toks))
	}
}
