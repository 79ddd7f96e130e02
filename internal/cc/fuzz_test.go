package cc

import (
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

// FuzzCompile feeds arbitrary .i text to the compiler front end: it must
// never panic, and scan must produce the tokens, positions and code-line
// count that scanReference does.
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
