package cc

import (
	"reflect"
	"strings"
	"testing"

	"jmake/internal/cpp"
	"jmake/internal/kernelgen"
)

// scanReference is scan as a plain split: strings.Split into lines, then
// cpp.Lex per line.
func scanReference(iText string) ([]tok, int) {
	var out []tok
	file := "<unknown>"
	line := 0
	codeLines := 0
	for _, raw := range strings.Split(iText, "\n") {
		if f, l, ok := parseMarker(raw); ok {
			file, line = f, l-1
			continue
		}
		line++
		if strings.TrimSpace(raw) == "" {
			continue
		}
		codeLines++
		for _, t := range cpp.Lex(raw) {
			out = append(out, tok{Token: t, file: file, line: line})
		}
	}
	return out, codeLines
}

// collectDeclarationsReference is collectDeclarations as it was first
// written: each file-scope candidate scans forward for its definition
// (isDefinitionReference), which is quadratic in a run of candidates.
func collectDeclarationsReference(toks []tok) (declared map[string]bool, defined []string) {
	declared = make(map[string]bool)
	depth := 0
	for i, t := range toks {
		if t.Kind == cpp.KindPunct {
			switch t.Text {
			case "{":
				depth++
			case "}":
				depth--
			}
			continue
		}
		if depth != 0 || t.Kind != cpp.KindIdent || isKeyword(t.Text) {
			continue
		}
		if i+1 >= len(toks) || toks[i+1].Kind != cpp.KindPunct || toks[i+1].Text != "(" {
			continue
		}
		declared[t.Text] = true
		if isDefinitionReference(toks, i+1) {
			defined = append(defined, t.Text)
		}
	}
	return declared, defined
}

// isDefinitionReference reports whether the '(' at toks[open] closes into
// a '{' (function definition) rather than ';', ',' or '=' (prototype).
func isDefinitionReference(toks []tok, open int) bool {
	depth := 0
	for i := open; i < len(toks); i++ {
		if toks[i].Kind != cpp.KindPunct {
			continue
		}
		switch toks[i].Text {
		case "(":
			depth++
		case ")":
			depth--
			if depth == 0 {
				for j := i + 1; j < len(toks); j++ {
					if toks[j].Kind == cpp.KindPunct {
						switch toks[j].Text {
						case "{":
							return true
						case ";", ",", "=":
							return false
						}
					}
				}
				return false
			}
		}
	}
	return false
}

// FuzzCompile feeds arbitrary .i text to the compiler front end: it must
// never panic, scan must produce the tokens, positions and code-line
// count that scanReference does, and collectDeclarations must find the
// declarations and definitions collectDeclarationsReference does.
func FuzzCompile(f *testing.F) {
	for _, s := range compileSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, iText string) {
		got, gotLines := scan(iText)
		want, wantLines := scanReference(iText)
		if gotLines != wantLines {
			t.Fatalf("scan counted %d code lines, reference %d", gotLines, wantLines)
		}
		if len(got) != len(want) {
			t.Fatalf("scan made %d tokens, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("token %d: scan %+v, reference %+v", i, got[i], want[i])
			}
		}
		declared, defined := collectDeclarations(got)
		wantDeclared, wantDefined := collectDeclarationsReference(got)
		if !reflect.DeepEqual(declared, wantDeclared) {
			t.Fatalf("declared %v, reference %v", declared, wantDeclared)
		}
		if !reflect.DeepEqual(defined, wantDefined) {
			t.Fatalf("defined %q, reference %q", defined, wantDefined)
		}
		_, _ = Compile(iText)
	})
}

// compileSeeds are hand-written units plus the preprocessed form of a few
// kernelgen files.
func compileSeeds(f *testing.F) []string {
	seeds := []string{
		validUnit,
		"",
		"\n\n",
		"int x\n",
		"# 1 \"a.c\"\n# 7 \"inc/we\\\"ird\\\\x.h\" 1\nint v = @;\n# 2 \"a.c\" 2\n",
		"# 1 \"a.c\nint broken_marker;\n# x \"a.c\"\n# 3 a.c\n#\n# 4\n",
		"# 1 \"drivers/a.c\"\nchar *s = \"unterminated;\nchar c = 'x;\n} ( [\n",
		"# 1 \"a.c\"\r\nint crlf(void)\r\n{\r\n return undeclared(1);\r\n}\r\n",
		"   \t\n# 5 \"b.c\" 1 3\nstatic int f(void) { return g(); }\nint g(void);\n",
		"# 1 \"a.c\"\nint tail;\nint no_final_newline(void) { return @; }",
	}
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 7, Scale: 0.05})
	if err != nil {
		f.Fatal(err)
	}
	files := mapSource{}
	for _, p := range tr.Paths() {
		files[p], _ = tr.Read(p)
	}
	opts := cpp.Options{IncludeDirs: []string{"arch/x86_64/include", "include"}}
	for _, p := range tr.Paths() {
		if !strings.HasSuffix(p, ".c") {
			continue
		}
		if res, err := cpp.Preprocess(files, p, opts); err == nil {
			seeds = append(seeds, res.Output)
		}
		if len(seeds) >= 16 {
			break
		}
	}
	return seeds
}
