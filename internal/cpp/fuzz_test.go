package cpp

import (
	"reflect"
	"strings"
	"testing"

	"jmake/internal/kernelgen"
)

// fuzzPredefined is the macro set every fuzz run starts from.
var fuzzPredefined = NewPredefined(map[string]string{
	"CONFIG_A": "1", "CONFIG_B": "2", "EMPTY": "", "LOOP": "LOOP + 1",
})

// FuzzPreprocess splits its input at the first NUL into a root file and
// one header the root may include as "h.h" or <h.h>. A run through a
// fresh TokenCache must equal a run without one, in every Result field
// and the error text: an uncached run lexes every directive operand from
// its text, a cached one reads the line's cached tokens. A second run
// through the same cache must equal the first, so expansion never wrote
// to the tokens the cache shares.
func FuzzPreprocess(f *testing.F) {
	for _, s := range preprocessSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		root, hdr, _ := strings.Cut(data, "\x00")
		src := mapSource{"main.c": root, "h.h": hdr}
		opts := Options{IncludeDirs: []string{"."}, Predefined: fuzzPredefined}
		want, wantErr := Preprocess(src, "main.c", opts)
		opts.Cache = NewTokenCache()
		for run := 1; run <= 2; run++ {
			got, gotErr := Preprocess(src, "main.c", opts)
			if e, g := errText(wantErr), errText(gotErr); e != g {
				t.Fatalf("cached run %d: error %q, uncached %q", run, g, e)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cached run %d differs from the uncached run:\ncached:   %+v\nuncached: %+v", run, got, want)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// preprocessSeeds are kernelgen files, each with its includes replaced by
// one of the header, plus hand-written edge cases.
func preprocessSeeds(f *testing.F) []string {
	seeds := []string{
		"#define F(x, ...) f(x, __VA_ARGS__)\n#define G(...) g(__VA_ARGS__)\nint a = F(1, 2, 3) + G() + F(F(4, 5), 6);\n",
		"#define S(x) #x\n#define P(a, b) a ## b\n#define Q(a, b, c) a ## b ## c\nchar *s = S(a \"b\\\" c\" 'd');\nint P(x, 1) = Q(1, +, +);\nint P(, y) P(z, );\n",
		"int l = __LINE__;\nchar *f = __FILE__;\nint c = __COUNTER__ + __COUNTER__;\n#if __LINE__ == 4 && __COUNTER__ == 2\nint yes;\n#endif\n",
		"#define D defined(X)\n#define E defined Y\n#define X\n#if D && !E\nint d;\n#endif\n#if defined(D) || defined X\nint e;\n#endif\n",
		"#if 0\nint a;\n#elif CONFIG_A == 2\nint b;\n#elif defined CONFIG_B && CONFIG_B > 1\nint c;\n#elif 1/0\n#else\nint d;\n#endif\n",
		"#define X 1\n#if(X)\nint x;\n#endif\n",
		"#define\fX 1\nint x = X;\n",
		"#\vdefine Y 2\n",
		"#ifdef\vCONFIG_A\nint a;\n#endif\n",
		"# define Z 3\n#\tundef Z\n#  ifndef Z\nint z = Z;\n# endif\n",
		"#define Q \"abc\nint q = Q;\nchar c = 'x;\n#if 'a\n#endif\n",
		"#include \"h.h\"\n#include <h.h>\nint v = H + ONCE;\n\x00#pragma once\n#define H 7\n#define ONCE H\n",
		"#define A B\n#define B A\nint x = A + B + LOOP;\n",
		"#define f(x) x f\n#define g f(1)(2)(3)\nint y = g;\n#define h(x) h(x) + x\nint z = h(h(1));\n",
		"#define EXPAND(x) x\n#define PAREN (\nint w = EXPAND(EMPTY) EXPAND(PAREN 1 );\n#define CALL(m) m(5)\n#define SQ(x) ((x) * (x))\nint s = CALL(SQ);\n",
		"#if CONFIG_A\n#if 0\n#garbage\n#else\nint n;\n#endif\n#endif\n#error stop here\n",
		"#warning careful\n#line 10\n#\n#pragma other\nint p;\n",
		"#define M(a) a\nint m = M(\n1,\n2);\nint n = M((1, 2));\n",
	}
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 7, Scale: 0.05})
	if err != nil {
		f.Fatal(err)
	}
	var roots, headers []string
	for _, p := range tr.Paths() {
		content, _ := tr.Read(p)
		switch {
		case strings.HasSuffix(p, ".c") && len(roots) < 4:
			var b strings.Builder
			b.WriteString("#include \"h.h\"\n")
			for _, ln := range strings.SplitAfter(content, "\n") {
				if !strings.HasPrefix(ln, "#include") {
					b.WriteString(ln)
				}
			}
			roots = append(roots, b.String())
		case strings.HasPrefix(p, "include/linux/") && len(headers) < 4:
			headers = append(headers, content)
		}
	}
	for i := range roots {
		seeds = append(seeds, roots[i]+"\x00"+headers[i%len(headers)])
	}
	return seeds
}
