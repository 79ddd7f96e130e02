package cc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"jmake/internal/cpp"
	"jmake/internal/fstree"
)

// compileOK asserts success and returns the object.
func compileOK(t *testing.T, iText string) Object {
	t.Helper()
	obj, err := Compile(iText)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return obj
}

// compileFail asserts failure and returns the diagnostics.
func compileFail(t *testing.T, iText string) []Diagnostic {
	t.Helper()
	_, err := Compile(iText)
	if err == nil {
		t.Fatal("Compile succeeded, want failure")
	}
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("error type = %T, want *CompileError", err)
	}
	return ce.Diags
}

const validUnit = `# 1 "drivers/a.c"
static int helper(int x)
{
 return x + 1;
}
int probe(void)
{
 int v = helper(2);
 return v;
}
`

func TestCompileValid(t *testing.T) {
	obj := compileOK(t, validUnit)
	if obj.Functions != 2 {
		t.Errorf("Functions = %d, want 2", obj.Functions)
	}
	if len(obj.Defined) != 2 || obj.Defined[0] != "helper" || obj.Defined[1] != "probe" {
		t.Errorf("Defined = %v", obj.Defined)
	}
	if obj.Lines != 9 {
		t.Errorf("Lines = %d, want 9", obj.Lines)
	}
}

func TestStrayCharacterRejected(t *testing.T) {
	src := "# 1 \"drivers/a.c\"\nint x = 1;\n@\"other:drivers/a.c:2\"\nint y = 2;\n"
	diags := compileFail(t, src)
	if len(diags) == 0 || !strings.Contains(diags[0].Msg, `stray "@"`) {
		t.Errorf("diags = %v", diags)
	}
	if diags[0].File != "drivers/a.c" || diags[0].Line != 2 {
		t.Errorf("position = %s:%d, want drivers/a.c:2", diags[0].File, diags[0].Line)
	}
}

func TestLineMarkersMapPositions(t *testing.T) {
	// Mutation propagated from a macro use on original line 40.
	src := "# 1 \"drivers/a.c\"\nint a;\n# 40 \"drivers/a.c\"\nint v = @\"define:drivers/a.c:7\";\n"
	diags := compileFail(t, src)
	if diags[0].Line != 40 {
		t.Errorf("line = %d, want 40 (from marker)", diags[0].Line)
	}

	// cpp quotes marker file names, so a header path holding '"' or '\'
	// must come back whole.
	files := mapSource{
		"main.c":           "#include <we\"ird\\x.h>\nint main_fn;\n",
		"inc/we\"ird\\x.h": "int v = @;\n",
	}
	res, err := cpp.Preprocess(files, "main.c", cpp.Options{IncludeDirs: []string{"inc"}})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	_, err = Compile(res.Output)
	if want := `inc/we"ird\x.h:1: error: stray "@" in program`; err == nil || err.Error() != want {
		t.Errorf("Compile error = %v, want %s", err, want)
	}
}

// mapSource is a cpp.Source backed by a map.
type mapSource map[string]string

func (m mapSource) ReadHashed(p string) (string, uint64, bool) {
	c, ok := m[p]
	return c, fstree.Hash(c), ok
}

func TestImplicitDeclaration(t *testing.T) {
	src := `# 1 "drivers/a.c"
int probe(void)
{
 return arch_only_fn(1);
}
`
	diags := compileFail(t, src)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, `implicit declaration of function "arch_only_fn"`) {
		t.Errorf("diags = %v", diags)
	}
}

func TestDeclaredByPrototype(t *testing.T) {
	src := `# 1 "include/linux/io.h"
extern void outw(int v, unsigned long addr);
# 1 "drivers/a.c"
int probe(void)
{
 outw(1, 0x40);
 return 0;
}
`
	compileOK(t, src)
}

func TestKeywordsNotCalls(t *testing.T) {
	src := `# 1 "a.c"
int f(int x)
{
 if (x) {
  while (x > 0) {
   x--;
  }
 }
 for (x = 0; x < 3; x++) {
  x += sizeof(int);
 }
 switch (x) {
 case 1:
  break;
 default:
  break;
 }
 return (x);
}
`
	compileOK(t, src)
}

func TestMemberCallsAllowed(t *testing.T) {
	src := `# 1 "a.c"
struct ops { int (*init)(void); };
int f(struct ops *o)
{
 return o->init();
}
`
	compileOK(t, src)
}

func TestFunctionPointerMembersNotDeclarations(t *testing.T) {
	// (*cb)( must not be treated as declaring "cb" nor as calling it.
	src := `# 1 "a.c"
struct handler { void (*cb)(int); };
static struct handler h;
int use(void)
{
 h.cb(1);
 return 0;
}
`
	compileOK(t, src)
}

func TestUnbalancedBraces(t *testing.T) {
	src := "# 1 \"a.c\"\nint f(void)\n{\n return 0;\n"
	diags := compileFail(t, src)
	if !strings.Contains(diags[0].Msg, `unclosed "{"`) {
		t.Errorf("diags = %v", diags)
	}
}

func TestMismatchedBrackets(t *testing.T) {
	src := "# 1 \"a.c\"\nint a[3} ;\n"
	diags := compileFail(t, src)
	if !strings.Contains(diags[0].Msg, "mismatched") {
		t.Errorf("diags = %v", diags)
	}
}

func TestUnexpectedCloser(t *testing.T) {
	src := "# 1 \"a.c\"\nint f(void)\n{\n return 0;\n}\n}\n"
	diags := compileFail(t, src)
	if !strings.Contains(diags[0].Msg, "unexpected") {
		t.Errorf("diags = %v", diags)
	}
}

func TestUnterminatedString(t *testing.T) {
	src := "# 1 \"a.c\"\nconst char *s = \"oops;\n"
	diags := compileFail(t, src)
	if !strings.Contains(diags[0].Msg, "missing terminating") {
		t.Errorf("diags = %v", diags)
	}
}

func TestDiagLimit(t *testing.T) {
	var b strings.Builder
	b.WriteString("# 1 \"a.c\"\n")
	for i := 0; i < 100; i++ {
		b.WriteString("@ @ @\n")
	}
	diags := compileFail(t, b.String())
	if len(diags) > maxDiags {
		t.Errorf("len(diags) = %d, want <= %d", len(diags), maxDiags)
	}
}

func TestPrototypeOnlyIsNotDefinition(t *testing.T) {
	src := "# 1 \"a.c\"\nint declared_only(int);\nint f(void)\n{\n return declared_only(3);\n}\n"
	obj := compileOK(t, src)
	if obj.Functions != 1 {
		t.Errorf("Functions = %d, want 1 (prototype is not a definition)", obj.Functions)
	}
}

func TestStaticInitializerNotCall(t *testing.T) {
	src := `# 1 "a.c"
static int probe_fn(void)
{
 return 0;
}
static struct { int (*p)(void); } ops = { probe_fn };
`
	compileOK(t, src)
}

func TestMultipleErrorsCollected(t *testing.T) {
	src := "# 1 \"a.c\"\n@ x;\n$ y;\n"
	diags := compileFail(t, src)
	if len(diags) != 2 {
		t.Errorf("len(diags) = %d, want 2: %v", len(diags), diags)
	}
}

func TestEmptyUnit(t *testing.T) {
	obj := compileOK(t, "# 1 \"a.c\"\n")
	if obj.Lines != 0 || obj.Functions != 0 {
		t.Errorf("empty unit: %+v", obj)
	}
}

func TestRedefinitionRejected(t *testing.T) {
	src := `# 1 "a.c"
int f(void)
{
 return 1;
}
int f(void)
{
 return 2;
}
`
	diags := compileFail(t, src)
	if !strings.Contains(diags[0].Msg, `redefinition of "f"`) {
		t.Errorf("diags = %v", diags)
	}
}

func TestPrototypePlusDefinitionAllowed(t *testing.T) {
	src := "# 1 \"a.c\"\nint f(void);\nint f(void)\n{\n return 1;\n}\n"
	compileOK(t, src)
}

// Definitions are resolved in one pass: a long run of file-scope calls
// with no terminator between them must cost linear time (a forward scan
// per call took seconds here), and Defined keeps token order when an
// inner candidate resolves before the outer one.
func TestDefinitionsResolvedInOnePass(t *testing.T) {
	src := "# 1 \"a.c\"\nvoid a(void);\n" + strings.Repeat("a() ", 32000) + "\n"
	start := time.Now()
	obj := compileOK(t, src)
	if d := time.Since(start); d > time.Second {
		t.Errorf("32,000 file-scope calls compiled in %v, want under 1s", d)
	}
	if obj.Functions != 0 {
		t.Errorf("Functions = %d, want 0", obj.Functions)
	}
	obj = compileOK(t, "# 1 \"a.c\"\ng(h() { }) { }\nint f(void) __attribute__((cold)) { return 0; }\n")
	if want := []string{"g", "h", "f"}; strings.Join(obj.Defined, " ") != strings.Join(want, " ") {
		t.Errorf("Defined = %q, want %q", obj.Defined, want)
	}
}
