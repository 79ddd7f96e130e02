package kconfig

import (
	"errors"
	"strings"
	"testing"

	"jmake/internal/kernelgen"
)

// FuzzKconfigParse parses a root Kconfig file that sources a second one,
// both arbitrary text (a patch can change any Kconfig file). Parse must
// never panic and must wrap ErrParse when it fails, and the valuations
// and select analysis of a parsed tree must never panic. One Parser then
// links the pair sourced at top level, sourced inside `if X`, and at top
// level again: each tree, or error, must equal a fresh parse's.
func FuzzKconfigParse(f *testing.F) {
	for _, s := range kconfigSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, root, sourced string) {
		src := mapSource{
			"Kconfig":     root + "\nsource \"sub/Kconfig\"\n",
			"sub/Kconfig": sourced,
			"top":         "source \"Kconfig\"\n",
			"top-if":      "if X\nsource \"Kconfig\"\nendif\n",
		}
		p := NewParser()
		for _, rootPath := range []string{"top", "top-if", "top"} {
			got, gerr := p.Parse(src, rootPath)
			want, werr := Parse(src, rootPath)
			if errText(gerr) != errText(werr) {
				t.Fatalf("%s: shared parser err %v, fresh parse err %v", rootPath, gerr, werr)
			}
			if d := treeDiff(got, want); d != "" {
				t.Fatalf("%s: shared parser tree differs from a fresh parse: %s", rootPath, d)
			}
		}
		tree, err := Parse(src, "Kconfig")
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("Parse error %v does not wrap ErrParse", err)
			}
			return
		}
		_ = tree.AllYesConfig()
		_ = tree.AllModConfig()
		_ = tree.SelectTargets()
	})
}

// kconfigSeeds pairs kernelgen Kconfig files, their source lines dropped,
// plus hand-written edge cases.
func kconfigSeeds(f *testing.F) [][2]string {
	seeds := [][2]string{
		{"config A\n\tbool \"a\"\n\tselect B\n", "config B\n\ttristate \"b\"\n\tdepends on A || !C\n"},
		{"choice\n\tbool \"c\"\n\tdefault X\nconfig X\n\tbool \"x\"\nconfig Y\n\tbool \"y\"\nendchoice\n", "if X\nconfig Z\n\tbool \"z\"\nendif\n"},
		{"menuconfig M\n\tbool \"m\"\nif M\n", "config N\n\tdef_bool y if M\n\tdefault m\nendif\n"},
		{"config A\n\tbool\n\tdepends on (A && B\n", "config 9bad\n"},
		{"", ""},
	}
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 7, Scale: 0.05})
	if err != nil {
		f.Fatal(err)
	}
	var files []string
	for _, p := range tr.Paths() {
		if strings.HasSuffix(p, "Kconfig") || strings.HasSuffix(p, "Kconfig.shared") {
			content, _ := tr.Read(p)
			var b strings.Builder
			for _, ln := range strings.SplitAfter(content, "\n") {
				if !strings.HasPrefix(strings.TrimSpace(ln), "source") {
					b.WriteString(ln)
				}
			}
			files = append(files, b.String())
		}
	}
	for i := 0; i+1 < len(files) && len(seeds) < 12; i += 2 {
		seeds = append(seeds, [2]string{files[i], files[i+1]})
	}
	return seeds
}
