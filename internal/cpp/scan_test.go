package cpp

import (
	"reflect"
	"strings"
	"testing"
)

// refLine is one logical line as the reference scan returns it.
type refLine struct {
	text      string
	startLine int
	nextLine  int
	toks      []Token
}

// referenceScan is the scan the record replaced: translation phases 2
// and 3 building one string per logical line, then Lex over each line.
func referenceScan(content string) []refLine {
	var out []refLine
	var b strings.Builder
	line := 1
	start := 1
	n := len(content)
	flush := func(next int) {
		out = append(out, refLine{text: b.String(), startLine: start, nextLine: next})
		b.Reset()
		start = next
	}
	i := 0
	for i < n {
		c := content[i]
		switch {
		case c == '\\' && i+1 < n && content[i+1] == '\n':
			i += 2
			line++
		case c == '\\' && i+2 < n && content[i+1] == '\r' && content[i+2] == '\n':
			i += 3
			line++
		case c == '\n':
			i++
			line++
			flush(line)
		case c == '/' && i+1 < n && content[i+1] == '/':
			for i < n && content[i] != '\n' {
				i++
			}
			b.WriteByte(' ')
		case c == '/' && i+1 < n && content[i+1] == '*':
			i += 2
			for i < n && !(content[i] == '*' && i+1 < n && content[i+1] == '/') {
				if content[i] == '\n' {
					line++
				}
				i++
			}
			if i < n {
				i += 2
			}
			b.WriteByte(' ')
		case c == '"' || c == '\'':
			q := c
			b.WriteByte(c)
			i++
			for i < n && content[i] != q && content[i] != '\n' {
				if content[i] == '\\' && i+1 < n && content[i+1] != '\n' {
					b.WriteByte(content[i])
					i++
				}
				b.WriteByte(content[i])
				i++
			}
			if i < n && content[i] == q {
				b.WriteByte(q)
				i++
			}
		default:
			b.WriteByte(c)
			i++
		}
	}
	if b.Len() > 0 {
		flush(line + 1)
	}
	for i := range out {
		out[i].toks = Lex(out[i].text)
	}
	return out
}

// referenceDefine returns the operand text of a `#define` line, split
// as the directive driver splits it, and whether the line is one.
func referenceDefine(text string) (string, bool) {
	trimmed := strings.TrimLeft(text, " \t")
	if !strings.HasPrefix(trimmed, "#") {
		return "", false
	}
	rest := strings.TrimLeft(trimmed[1:], " \t")
	name := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name = rest[:i]
		rest = strings.TrimLeft(rest[i:], " \t")
	} else {
		rest = ""
	}
	return rest, name == "define"
}

// FuzzScan checks the token cache's record against the reference scan:
// every line's text, startLine, nextLine and tokens, and for every
// #define line the macro (or error) parseDefine gives for the line's
// operand lexed on its own. Lines and tokens must lie back to back in
// exactly sized arrays.
func FuzzScan(f *testing.F) {
	for _, s := range []string{
		"int a = 1 + \\\n 2;\nint b;\n",
		"int a = 1 + \\\r\n 2;\r\nint b;\r\n",
		"int a; /* spans\nthree\nlines */ int b;\n// line comment \\\nstill comment\nint c;\n",
		"char *s = \"unterminated\nchar c = 'x;\nchar *e = \"esc \\\" quote \\\\\" + 'a\\'';\n",
		"char *t = \"a /* not a comment */ // nor this\";\n",
		"int last = 1",
		"#define OBJ 1 + 2\n#define FN(a, b) ((a) + (b))\n#define VA(x, ...) f(x, __VA_ARGS__)\n#define ONLY(...) g(__VA_ARGS__)\n",
		"#define\n#define 1\n#define F(\n#define G(a b) a\n#define H(a,) a\n#define E()\n#define P (x)\n",
		"  #  define SPACED\tbody\n\t#define TAB(x)x\n#define\fX 1\n#\vdefine Y 2\n",
		"#define A /* comment */ 1\n#define B 1 \\\n + 2\n#define C \"str // x\" 'c'\n",
		"/* unterminated block\n#define HIDDEN 1\n",
		"\\\n\\\r\n\n\n\\",
		"@ ` $   0x1p-3 .5e+2 a->b ... <<= ##\n",
	} {
		f.Add(s)
	}
	for _, s := range preprocessSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, content string) {
		ref := referenceScan(content)
		s := scan(content)
		if len(s.lines) != len(ref) || cap(s.lines) != len(s.lines) || cap(s.toks) != len(s.toks) {
			t.Fatalf("%d lines (cap %d), %d tokens (cap %d); reference %d lines",
				len(s.lines), cap(s.lines), len(s.toks), cap(s.toks), len(ref))
		}
		var off, tok uint32
		defs := 0
		for i, want := range ref {
			ln := &s.lines[i]
			if ln.off != off || ln.tok != tok {
				t.Fatalf("line %d starts at text %d, token %d; want %d, %d", i, ln.off, ln.tok, off, tok)
			}
			off, tok = ln.end, ln.tokEnd
			if got := s.lineText(ln); got != want.text {
				t.Fatalf("line %d text %q, want %q", i, got, want.text)
			}
			if int(ln.startLine) != want.startLine || int(ln.nextLine) != want.nextLine {
				t.Fatalf("line %d spans %d..%d, want %d..%d", i, ln.startLine, ln.nextLine, want.startLine, want.nextLine)
			}
			if got := s.tokens(nil, s.lineToks(ln)); !reflect.DeepEqual(got, want.toks) && len(got)+len(want.toks) > 0 {
				t.Fatalf("line %d tokens\n%+v\nwant\n%+v", i, got, want.toks)
			}
			operand, ok := referenceDefine(want.text)
			if !ok {
				continue
			}
			if defs == len(s.defs) || int(s.defs[defs].line) != i {
				t.Fatalf("line %d %q: no #define record", i, want.text)
			}
			d := s.defs[defs]
			defs++
			m, err := parseDefine(Lex(operand))
			if errText(d.err) != errText(err) {
				t.Fatalf("line %d %q: error %q, want %q", i, want.text, errText(d.err), errText(err))
			}
			if !reflect.DeepEqual(d.m, m) {
				t.Fatalf("line %d %q: macro\n%+v\nwant\n%+v", i, want.text, d.m, m)
			}
		}
		if int(off) != len(s.text) || int(tok) != len(s.toks) || defs != len(s.defs) {
			t.Fatalf("records end at text %d, token %d, define %d; want %d, %d, %d",
				off, tok, defs, len(s.text), len(s.toks), len(s.defs))
		}
	})
}

// The records the token cache keeps resident hold no pointers, so the
// collector never scans their arrays: a string, slice, map, pointer,
// interface, func or chan field in either would make it scan them all.
func TestRecordsHoldNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(lineRec{}), reflect.TypeOf(tokRec{})} {
		for i := 0; i < typ.NumField(); i++ {
			if fld := typ.Field(i); !pointerFree(fld.Type) {
				t.Errorf("%s.%s is a %s, which holds a pointer", typ.Name(), fld.Name, fld.Type)
			}
		}
	}
}

// pointerFree reports whether a value of type typ holds no pointer.
func pointerFree(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
		reflect.Interface, reflect.Func, reflect.Chan:
		return false
	case reflect.Array:
		return pointerFree(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
	}
	return true
}
