package kconfig

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/kernelgen"
)

// treeDiff describes the first difference between two trees, "" when they
// are deeply equal: names in order, files, every symbol field (the
// DependsOn structure included), choices and select targets.
func treeDiff(got, want *Tree) string {
	switch {
	case got == nil || want == nil:
		if got != want {
			return fmt.Sprintf("tree %v, want %v", got, want)
		}
		return ""
	case !reflect.DeepEqual(got.order, want.order):
		return fmt.Sprintf("names %v, want %v", got.order, want.order)
	case !reflect.DeepEqual(got.files, want.files):
		return fmt.Sprintf("files %v, want %v", got.files, want.files)
	}
	for _, name := range want.order {
		if g, w := got.symbols[name], want.symbols[name]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("symbol %s = %+v, want %+v", name, *g, *w)
		}
	}
	switch {
	case len(got.symbols) != len(want.symbols):
		return fmt.Sprintf("%d symbols, want %d", len(got.symbols), len(want.symbols))
	case !reflect.DeepEqual(got.choices, want.choices):
		return "choices differ"
	case !reflect.DeepEqual(got.selected, want.selected):
		return fmt.Sprintf("select targets %v, want %v", got.selected, want.selected)
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestHelpBodyIsText pins help bodies as free text: body lines that start
// with a keyword give the same tree as the file without the body. The
// body ends at the first non-blank line indented less than its first
// line, and a line at column 0 right after `help` ends an empty body.
func TestHelpBodyIsText(t *testing.T) {
	const head = "config FOO\n\tbool \"foo\"\n\t%s\n"
	const tail = "\nconfig BAR\n\ttristate \"bar\"\n\tdepends on FOO\n"
	bodies := []string{
		"\t  Say Y if you want this.\n\t  select it only when unsure.\n",
		"\t  if in doubt, say N.\n\t  choice between the two.\n\n\t  source trees differ.\n",
		"\t  config options below depend on this.\n\t    depends on nothing,\n\t  endif endchoice endmenu\n",
		"          default y is fine; eight spaces equal one tab.\n",
	}
	for _, kw := range []string{"help", "---help---"} {
		want := parseOne(t, fmt.Sprintf(head, kw)+tail)
		for i, body := range bodies {
			got := parseOne(t, fmt.Sprintf(head, kw)+body+tail)
			if d := treeDiff(got, want); d != "" {
				t.Errorf("%s body %d: %s", kw, i, d)
			}
		}
	}

	// A line indented less than the body's first line ends the body, and
	// a column-0 line right after `help` is no body at all.
	for _, text := range []string{
		"\t    deep text\n\t  still text\n\tconfig BAZ\n\tbool \"baz\"\n",
		"config BAZ\n\tbool \"baz\"\n",
	} {
		tree := parseOne(t, fmt.Sprintf(head, "help")+text)
		if tree.Symbol("BAZ") == nil {
			t.Errorf("config BAZ after a help line was read as help text:\n%s", text)
		}
	}
}

// TestParserSharesRecords links three architecture roots that source one
// shared file through one Parser, the first again at the end. Each tree
// equals a fresh parse; a symbol declared once is the same *Symbol in the
// trees that source the file at top level, a redeclared one is the
// redeclaring tree's own copy, and the shared file sourced under an `if`
// is a record of its own.
func TestParserSharesRecords(t *testing.T) {
	src := mapSource{
		"shared": "config CORE\n\tbool \"core\"\n\tselect LIB\n\nconfig LIB\n\ttristate \"lib\"\n\tdepends on CORE\n" +
			"choice\n\tbool \"pick\"\n\tdefault ONE\nconfig ONE\n\tbool \"one\"\nconfig TWO\n\tbool \"two\"\nendchoice\n",
		"arch/a/Kconfig": "config A\n\tdef_bool y\nsource \"shared\"\n",
		"arch/b/Kconfig": "config B\n\tdef_bool y\nsource \"shared\"\nconfig LIB\n\tdepends on B\n\tselect CORE if B\n",
		"arch/c/Kconfig": "config C\n\tdef_bool y\nif C\nsource \"shared\"\nendif\n",
	}
	p := NewParser()
	trees := map[string]*Tree{}
	for _, arch := range []string{"a", "b", "c", "a"} {
		root := "arch/" + arch + "/Kconfig"
		got, err := p.Parse(src, root)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Parse(src, root)
		if err != nil {
			t.Fatal(err)
		}
		if d := treeDiff(got, want); d != "" {
			t.Errorf("%s linked through a shared parser: %s", arch, d)
		}
		trees[arch] = got
	}
	a, b, c := trees["a"], trees["b"], trees["c"]
	if a.Symbol("CORE") != b.Symbol("CORE") {
		t.Error("CORE, declared once, is not shared between a and b")
	}
	if a.Symbol("LIB") == b.Symbol("LIB") {
		t.Error("LIB, redeclared in b, shares a's symbol")
	}
	if got := a.Symbol("LIB").DependsOn.String(); got != "CORE" {
		t.Errorf("b's redeclaration leaked into a's LIB: depends on %s", got)
	}
	if got := b.Symbol("LIB").DependsOn.String(); got != "(CORE && B)" {
		t.Errorf("b's LIB depends on %s, want (CORE && B)", got)
	}
	if a.Symbol("CORE") == c.Symbol("CORE") || c.Symbol("CORE").DependsOn.String() != "C" {
		t.Errorf("the shared file under `if C` reused the top-level record: CORE depends on %v", c.Symbol("CORE").DependsOn)
	}
	if len(p.records) != 5 {
		t.Errorf("parser holds %d records, want 5 (three roots, shared twice)", len(p.records))
	}
}

// treeSource reads Kconfig files from a generated tree.
type treeSource struct{ t *fstree.Tree }

func (s treeSource) ReadFile(p string) (string, bool) {
	c, err := s.t.Read(p)
	return c, err == nil
}

// TestParserConcurrentLinks links every architecture of a generated tree
// through one Parser from four goroutines at once, as a session's
// evaluation workers do: every tree must equal a fresh parse, so `go test
// -race` checks the parser's memo.
func TestParserConcurrentLinks(t *testing.T) {
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 3, Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	var roots []string
	for _, p := range tr.Under("arch") {
		if parts := strings.Split(p, "/"); len(parts) == 3 && parts[2] == "Kconfig" {
			roots = append(roots, p)
		}
	}
	src := treeSource{tr}
	p := NewParser()
	var wg sync.WaitGroup
	errs := make([]string, 4)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range roots {
				root := roots[(i+w*len(roots)/4)%len(roots)]
				got, gerr := p.Parse(src, root)
				want, werr := Parse(src, root)
				if errText(gerr) != errText(werr) {
					errs[w] = fmt.Sprintf("%s: err %v, fresh %v", root, gerr, werr)
					return
				}
				if d := treeDiff(got, want); d != "" {
					errs[w] = fmt.Sprintf("%s: %s", root, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}

// TestRedeclarationMerges pins how later declarations of a symbol merge
// into its first, in file order across sourced files: dependencies
// conjoin (the inherited `if` condition first), the last type and prompt
// set win, and selects and defaults append. A shared parser gives the
// same symbol, and a tree where the second file declares it first keeps
// that file's symbol unmerged.
func TestRedeclarationMerges(t *testing.T) {
	src := mapSource{
		"Kconfig": "config R\n\tbool \"first\"\n\tdepends on A\n\tselect S\n\tdefault y\n" +
			"if G\nsource \"sub\"\nendif\nconfig R\n\tdepends on C\n",
		"sub":  "config R\n\ttristate \"second\"\n\tdepends on B\n\tselect T if A\n\tdefault m\n\tdef_bool n\n",
		"only": "source \"sub\"\n",
	}
	p := NewParser()
	for i := 0; i < 2; i++ {
		tree, err := p.Parse(src, "Kconfig")
		if err != nil {
			t.Fatal(err)
		}
		r := tree.Symbol("R")
		var sels, defs []string
		for _, s := range r.Selects {
			sels = append(sels, fmt.Sprintf("%s if %v", s.Target, s.Cond))
		}
		for _, d := range r.Defaults {
			defs = append(defs, fmt.Sprintf("%v if %v", d.Value, d.Cond))
		}
		got := fmt.Sprintf("%s %v %q %s %v %v %s", r.Name, r.Type, r.Prompt, r.DependsOn, sels, defs, r.DefFile)
		want := fmt.Sprintf("R %v \"second\" (((A && G) && B) && C) [S if <nil> T if A] [y if <nil> m if <nil> n if <nil>] Kconfig", TypeBool)
		if got != want {
			t.Errorf("pass %d: merged R = %s\nwant %s", i, got, want)
		}
		if !reflect.DeepEqual(tree.Names(), []string{"R"}) || !tree.SelectTargets()["S"] || !tree.SelectTargets()["T"] {
			t.Errorf("pass %d: names %v, select targets %v", i, tree.Names(), tree.SelectTargets())
		}
	}
	only, err := p.Parse(src, "only")
	if err != nil {
		t.Fatal(err)
	}
	if r := only.Symbol("R"); r.Type != TypeBool || r.Prompt != "second" || r.DependsOn.String() != "B" || len(r.Selects) != 1 || len(r.Defaults) != 2 {
		t.Errorf("sub's own R = %+v", *r)
	}
}
