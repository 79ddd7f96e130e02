package presence

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/kernelgen"
)

func parseKconfig(t *testing.T, content string) *kconfig.Tree {
	t.Helper()
	tr := fstree.New()
	tr.Write("Kconfig", content)
	kt, err := kconfig.Parse(kbuild.TreeSource{T: tr}, "Kconfig")
	if err != nil {
		t.Fatal(err)
	}
	return kt
}

// TestDependsFormulasTristateFold pins the tristate abstraction: a
// tristate dependency contributes different formulas for "enabled at all"
// (y or m) and "at y", negation swaps the thresholds (Kconfig's y - v),
// and the constant m is enabled but never y.
func TestDependsFormulasTristateFold(t *testing.T) {
	kt := parseKconfig(t, `
config A
	tristate "a"

config B
	bool "b"

config P_SYM
	bool "p"
	depends on A

config P_NOT
	bool "p"
	depends on !A

config P_M
	bool "p"
	depends on m

config P_MIX
	bool "p"
	depends on A && B
`)
	probe := func(name string) (string, string) {
		t.Helper()
		s := kt.Symbol(name)
		if s == nil || s.DependsOn == nil {
			t.Fatalf("probe %s missing depends", name)
		}
		en, yes := DependsFormulas(kt, s.DependsOn)
		return en.String(), yes.String()
	}

	if en, yes := probe("P_SYM"); en != "(CONFIG_A || CONFIG_A_MODULE)" || yes != "CONFIG_A" {
		t.Errorf("tristate A folds to enabled=%s isYes=%s", en, yes)
	}
	// y - A: != n iff A != y; == y iff A == n.
	if en, yes := probe("P_NOT"); en != "!CONFIG_A" || yes != "!(CONFIG_A || CONFIG_A_MODULE)" {
		t.Errorf("!A folds to enabled=%s isYes=%s", en, yes)
	}
	if en, yes := probe("P_M"); en != "true" || yes != "false" {
		t.Errorf("constant m folds to enabled=%s isYes=%s", en, yes)
	}
	if en, yes := probe("P_MIX"); en != "((CONFIG_A || CONFIG_A_MODULE) && CONFIG_B)" || yes != "(CONFIG_A && CONFIG_B)" {
		t.Errorf("A && B folds to enabled=%s isYes=%s", en, yes)
	}
}

// TestKconfigConstraintsMvsY is the m-versus-y distinction end to end: a
// tristate capped at m by its dependency can never reach y, so its y
// variable is unsatisfiable while its _MODULE variable stays free.
func TestKconfigConstraintsMvsY(t *testing.T) {
	kt := parseKconfig(t, `
config CAPPED
	tristate "never above m"
	depends on m
`)

	y := Symbol("CONFIG_CAPPED")
	if got := Decide(And(y, NewModel(kt).KconfigConstraints(y))); got != SatNo {
		t.Errorf("CONFIG_CAPPED=y decide = %v, want SatNo", got)
	}
	m := Symbol("CONFIG_CAPPED_MODULE")
	if got := Decide(And(m, NewModel(kt).KconfigConstraints(m))); got != SatYes {
		t.Errorf("CONFIG_CAPPED=m decide = %v, want SatYes", got)
	}
}

// TestSymbolEnabledShapes pins SymbolEnabled per type: tristates may be y
// or m, bools only y, undeclared symbols are constant false.
func TestSymbolEnabledShapes(t *testing.T) {
	kt := parseKconfig(t, `
config A
	tristate "a"

config B
	bool "b"
`)
	if got := SymbolEnabled(kt, "A").String(); got != "(CONFIG_A || CONFIG_A_MODULE)" {
		t.Errorf("tristate enabled = %s", got)
	}
	if got := SymbolEnabled(kt, "B").String(); got != "CONFIG_B" {
		t.Errorf("bool enabled = %s", got)
	}
	if got := SymbolEnabled(kt, "NO_SUCH"); got != False {
		t.Errorf("undeclared enabled = %v, want False", got)
	}
}

// referenceKconfigConstraints is KconfigConstraints as it was before a
// Model memoized its terms: every call folds every dependency afresh.
func referenceKconfigConstraints(kt *kconfig.Tree, f Formula) Formula {
	selects := kt.SelectTargets()
	out := True
	syms := Symbols(f)
	present := make(map[string]bool, len(syms))
	for _, s := range syms {
		present[s] = true
	}
	for _, name := range syms {
		if !IsConfigSymbol(name) {
			continue
		}
		base := strings.TrimPrefix(name, "CONFIG_")
		root, isModuleVar := base, false
		if kt.Symbol(base) == nil {
			r, ok := strings.CutSuffix(base, "_MODULE")
			if !ok {
				continue
			}
			root, isModuleVar = r, true
		}
		s := kt.Symbol(root)
		if s == nil {
			continue
		}
		yVar := Symbol("CONFIG_" + root)
		mVar := Symbol("CONFIG_" + root + "_MODULE")
		if s.Type == kconfig.TypeTristate && !isModuleVar && present["CONFIG_"+root+"_MODULE"] {
			out = And(out, Not(And(yVar, mVar)))
		}
		if selects[root] || s.DependsOn == nil {
			continue
		}
		enabled, isYes := DependsFormulas(kt, s.DependsOn)
		switch {
		case isModuleVar:
			out = And(out, Implies(mVar, enabled))
		case s.Type == kconfig.TypeTristate:
			out = And(out, Implies(yVar, isYes))
		default:
			out = And(out, Implies(yVar, enabled))
		}
	}
	return out
}

// referenceArchFormula is ArchFormula over referenceKconfigConstraints.
func referenceArchFormula(kt *kconfig.Tree, cond Formula, gate *kbuild.Gate) Formula {
	f := cond
	if gate != nil {
		f = And(f, GateFormula(kt, gate))
		f = Replace(f, ModuleRepl(kt, gate))
	}
	f = Substitute(f, UndeclaredKnow(kt))
	return And(f, referenceKconfigConstraints(kt, f))
}

// TestModelMatchesReference checks one Model per architecture of a
// generated tree against the unmemoized construction: every region
// condition of every .c and .h file, with the file's Kbuild gate, gives
// the same ArchFormula, and every symbol with a `depends on` the same
// DependsFormulas pair. Four goroutines share each model, so `go test
// -race` checks its memo too.
func TestModelMatchesReference(t *testing.T) {
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kernelgen.InjectMismatches(tr, 1, 12); err != nil {
		t.Fatal(err)
	}
	type block struct {
		path string
		cond Formula
	}
	var blocks []block
	for _, p := range tr.Paths() {
		if !strings.HasSuffix(p, ".c") && !strings.HasSuffix(p, ".h") {
			continue
		}
		content, err := tr.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, rg := range Analyze(p, content).Regions() {
			blocks = append(blocks, block{p, rg.Cond})
		}
	}
	kp := kconfig.NewParser()
	for _, root := range tr.Under("arch") {
		parts := strings.Split(root, "/")
		if len(parts) != 3 || parts[2] != "Kconfig" {
			continue
		}
		arch := parts[1]
		kt, err := kp.Parse(kbuild.TreeSource{T: tr}, root)
		if err != nil {
			t.Fatal(err)
		}
		gates := kbuild.NewMakefileCache(tr)
		m := NewModel(kt)
		var wg sync.WaitGroup
		errs := make([]string, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(blocks)+w; i++ {
					b := blocks[i%len(blocks)]
					var gate *kbuild.Gate
					if g, err := gates.FileGate(b.path, arch); err == nil && strings.HasSuffix(b.path, ".c") {
						gate = &g
					}
					got, want := m.ArchFormula(b.cond, gate), referenceArchFormula(kt, b.cond, gate)
					if got.String() != want.String() {
						errs[w] = fmt.Sprintf("%s %s: ArchFormula %s, reference %s", arch, b.path, got, want)
						return
					}
				}
				for _, name := range kt.Names() {
					s := kt.Symbol(name)
					if s.DependsOn == nil {
						continue
					}
					en, yes := m.DependsOf(name)
					wEn, wYes := DependsFormulas(kt, s.DependsOn)
					if en.String() != wEn.String() || yes.String() != wYes.String() {
						errs[w] = fmt.Sprintf("%s %s: DependsOf %s/%s, reference %s/%s", arch, name, en, yes, wEn, wYes)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Fatal(e)
			}
		}
	}
}
