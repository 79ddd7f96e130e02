package presence

import (
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
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
	if got := Decide(And(y, KconfigConstraints(kt, y))); got != SatNo {
		t.Errorf("CONFIG_CAPPED=y decide = %v, want SatNo", got)
	}
	m := Symbol("CONFIG_CAPPED_MODULE")
	if got := Decide(And(m, KconfigConstraints(kt, m))); got != SatYes {
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
