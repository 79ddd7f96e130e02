package kconfig

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

type mapSource map[string]string

func (m mapSource) ReadFile(p string) (string, bool) {
	c, ok := m[p]
	return c, ok
}

func parseOne(t *testing.T, text string) *Tree {
	t.Helper()
	tree, err := Parse(mapSource{"Kconfig": text}, "Kconfig")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return tree
}

func TestParseExprEval(t *testing.T) {
	vals := map[string]Value{"A": Yes, "B": Mod, "C": No}
	get := func(n string) Value { return vals[n] }
	tests := []struct {
		expr string
		want Value
	}{
		{"A", Yes},
		{"B", Mod},
		{"C", No},
		{"UNDECLARED", No},
		{"!A", No},
		{"!B", Mod}, // tristate negation: !m == m
		{"!C", Yes},
		{"A && B", Mod},
		{"A || B", Yes},
		{"C || B", Mod},
		{"A && !C", Yes},
		{"(A || C) && B", Mod},
		{"A = y", Yes},
		{"B = m", Yes},
		{"B != y", Yes},
		{"A != y", No},
		{"y", Yes},
		{"m", Mod},
		{"n", No},
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			e, err := ParseExpr(tt.expr)
			if err != nil {
				t.Fatalf("ParseExpr: %v", err)
			}
			if got := e.Eval(get); got != tt.want {
				t.Errorf("Eval(%q) = %v, want %v", tt.expr, got, tt.want)
			}
		})
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, bad := range []string{"", "A &&", "(A", "A B", "&& A", "!"} {
		if _, err := ParseExpr(bad); err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error", bad)
		}
	}
}

func TestParseBasicSymbols(t *testing.T) {
	tree := parseOne(t, `
config NET
	bool "Networking support"

config USB
	tristate "USB support"
	depends on NET

config USB_STORAGE
	tristate "USB storage"
	depends on USB
	default m
`)
	if tree.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tree.Len())
	}
	net := tree.Symbol("NET")
	if net.Type != TypeBool || net.Prompt != "Networking support" {
		t.Errorf("NET = %+v", net)
	}
	usb := tree.Symbol("USB")
	if usb.Type != TypeTristate || usb.DependsOn == nil {
		t.Errorf("USB = %+v", usb)
	}
	if got := tree.Names(); !reflect.DeepEqual(got, []string{"NET", "USB", "USB_STORAGE"}) {
		t.Errorf("Names = %v", got)
	}
}

func TestSourceDirective(t *testing.T) {
	src := mapSource{
		"Kconfig":         "config TOP\n\tbool \"top\"\nsource \"drivers/Kconfig\"\n",
		"drivers/Kconfig": "config DRV\n\tbool \"drv\"\n\tdepends on TOP\n",
	}
	tree, err := Parse(src, "Kconfig")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tree.Symbol("DRV") == nil {
		t.Fatal("DRV not found via source")
	}
	if got := tree.Symbol("DRV").DefFile; got != "drivers/Kconfig" {
		t.Errorf("DefFile = %q", got)
	}
	if got := tree.Files(); !reflect.DeepEqual(got, []string{"Kconfig", "drivers/Kconfig"}) {
		t.Errorf("Files = %v", got)
	}
}

func TestMissingSource(t *testing.T) {
	_, err := Parse(mapSource{"Kconfig": "source \"gone/Kconfig\"\n"}, "Kconfig")
	if !errors.Is(err, ErrParse) {
		t.Errorf("err = %v, want ErrParse", err)
	}
}

func TestIfBlocks(t *testing.T) {
	tree := parseOne(t, `
config GATE
	bool "gate"

if GATE
config INSIDE
	bool "inside"
endif

config OUTSIDE
	bool "outside"
`)
	cfgAll := tree.AllYesConfig()
	if cfgAll.Value("INSIDE") != Yes {
		t.Errorf("INSIDE should be y when GATE is y")
	}
	// Now a tree where the gate can never be y.
	tree2 := parseOne(t, `
config GATE
	bool "gate"
	depends on NEVER

if GATE
config INSIDE
	bool "inside"
endif
`)
	if got := tree2.AllYesConfig().Value("INSIDE"); got != No {
		t.Errorf("INSIDE = %v, want n (gate off)", got)
	}
}

func TestUnterminatedIf(t *testing.T) {
	_, err := Parse(mapSource{"Kconfig": "if A\nconfig B\n\tbool \"b\"\n"}, "Kconfig")
	if !errors.Is(err, ErrParse) {
		t.Errorf("err = %v, want ErrParse", err)
	}
}

func TestAllYesConfigDependencies(t *testing.T) {
	tree := parseOne(t, `
config A
	bool "a"

config B
	bool "b"
	depends on A

config C
	bool "c"
	depends on !A

config D
	tristate "d"
	depends on B
`)
	cfg := tree.AllYesConfig()
	if cfg.Value("A") != Yes || cfg.Value("B") != Yes || cfg.Value("D") != Yes {
		t.Errorf("A/B/D = %v/%v/%v, want y/y/y", cfg.Value("A"), cfg.Value("B"), cfg.Value("D"))
	}
	// The paper (§VII) notes allyesconfig sets variables to yes, so code
	// under !A (like #ifndef) stays out.
	if cfg.Value("C") != No {
		t.Errorf("C = %v, want n (depends on !A)", cfg.Value("C"))
	}
}

func TestAllModConfig(t *testing.T) {
	tree := parseOne(t, `
config CORE
	bool "core"

config DRV
	tristate "driver"
	depends on CORE
`)
	cfg := tree.AllModConfig()
	if cfg.Value("CORE") != Yes {
		t.Errorf("CORE = %v, want y (bool)", cfg.Value("CORE"))
	}
	if cfg.Value("DRV") != Mod {
		t.Errorf("DRV = %v, want m (tristate)", cfg.Value("DRV"))
	}
}

func TestTristateDependencyBound(t *testing.T) {
	// A tristate depending on an m symbol is capped at m.
	tree := parseOne(t, `
config BUS
	tristate "bus"

config DEV
	tristate "dev"
	depends on BUS
`)
	cfg := tree.AllModConfig()
	if cfg.Value("DEV") != Mod {
		t.Errorf("DEV = %v, want m", cfg.Value("DEV"))
	}
}

func TestSelectForcesTarget(t *testing.T) {
	tree := parseOne(t, `
config HELPER
	bool "helper"
	depends on NEVER_SET

config USER
	bool "user"
	select HELPER
`)
	cfg := tree.AllYesConfig()
	// select ignores the target's dependencies — true Kconfig semantics.
	if cfg.Value("HELPER") != Yes {
		t.Errorf("HELPER = %v, want y (selected)", cfg.Value("HELPER"))
	}
}

func TestConditionalSelect(t *testing.T) {
	tree := parseOne(t, `
config COND
	bool "cond"
	depends on NEVER

config T
	bool "t"
	depends on NEVER

config U
	bool "u"
	select T if COND
`)
	cfg := tree.AllYesConfig()
	if cfg.Value("T") != No {
		t.Errorf("T = %v, want n (select condition false)", cfg.Value("T"))
	}
}

func TestApplyDefconfig(t *testing.T) {
	tree := parseOne(t, `
config A
	bool "a"

config B
	tristate "b"
	depends on A

config C
	bool "c"
	default A

config D
	bool "d"
	default y if B
`)
	cfg, err := tree.ApplyDefconfig("CONFIG_A=y\nCONFIG_B=m\n# CONFIG_X is not set\n")
	if err != nil {
		t.Fatalf("ApplyDefconfig: %v", err)
	}
	if cfg.Value("A") != Yes || cfg.Value("B") != Mod {
		t.Errorf("A/B = %v/%v", cfg.Value("A"), cfg.Value("B"))
	}
	if cfg.Value("C") != Yes {
		t.Errorf("C = %v, want y (default A)", cfg.Value("C"))
	}
	if cfg.Value("D") != Yes {
		t.Errorf("D = %v, want y (default y if B, B=m)", cfg.Value("D"))
	}
}

func TestApplyDefconfigErrors(t *testing.T) {
	tree := parseOne(t, "config A\n\tbool \"a\"\n")
	for _, bad := range []string{"GARBAGE\n", "CONFIG_A=maybe\n", "A=y\n"} {
		if _, err := tree.ApplyDefconfig(bad); err == nil {
			t.Errorf("ApplyDefconfig(%q) succeeded, want error", bad)
		}
	}
}

func TestDefines(t *testing.T) {
	tree := parseOne(t, `
config ON
	bool "on"

config MODULAR
	tristate "modular"

config OFF
	bool "off"
	depends on NEVER
`)
	cfg := tree.AllModConfig()
	defs := cfg.Defines()
	if defs["CONFIG_ON"] != "1" {
		t.Errorf("CONFIG_ON missing: %v", defs)
	}
	if defs["CONFIG_MODULAR_MODULE"] != "1" {
		t.Errorf("CONFIG_MODULAR_MODULE missing: %v", defs)
	}
	if _, ok := defs["CONFIG_OFF"]; ok {
		t.Errorf("CONFIG_OFF should be absent: %v", defs)
	}
	if _, ok := defs["CONFIG_MODULAR"]; ok {
		t.Errorf("m symbol must not define the builtin macro: %v", defs)
	}
}

func TestEnabledCountAndClone(t *testing.T) {
	tree := parseOne(t, "config A\n\tbool \"a\"\nconfig B\n\tbool \"b\"\n\tdepends on NEVER\n")
	cfg := tree.AllYesConfig()
	cl := cfg.Clone()
	cl.Set("B", Yes)
	if cfg.Value("B") != No {
		t.Error("Clone aliases original")
	}
}

// Property: tristate negation is an involution and De Morgan holds for the
// min/max lattice.
func TestQuickTristateLattice(t *testing.T) {
	norm := func(v Value) Value {
		if v < No {
			return No
		}
		if v > Yes {
			return Yes
		}
		return v
	}
	f := func(a8, b8 uint8) bool {
		a, b := norm(Value(a8%3)), norm(Value(b8%3))
		get := func(n string) Value {
			if n == "A" {
				return a
			}
			return b
		}
		notNot, _ := ParseExpr("!!A")
		plain, _ := ParseExpr("A")
		deMorganL, _ := ParseExpr("!(A && B)")
		deMorganR, _ := ParseExpr("!A || !B")
		return notNot.Eval(get) == plain.Eval(get) &&
			deMorganL.Eval(get) == deMorganR.Eval(get)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AllYesConfig is a fixpoint — every enabled symbol's dependency
// evaluates above No, i.e. the valuation is self-consistent (modulo
// selects, which legitimately violate dependencies).
func TestAllYesConfigConsistent(t *testing.T) {
	tree := parseOne(t, `
config A
	bool "a"
config B
	bool "b"
	depends on A
config C
	tristate "c"
	depends on B && !D
config D
	bool "d"
	depends on NEVER
config E
	tristate "e"
	depends on C
`)
	cfg := tree.AllYesConfig()
	get := func(n string) Value { return cfg.Value(n) }
	for _, name := range tree.Names() {
		s := tree.Symbol(name)
		if cfg.Value(name) == No || s.DependsOn == nil {
			continue
		}
		if s.DependsOn.Eval(get) == No {
			t.Errorf("symbol %s enabled with unmet dependency %s", name, s.DependsOn)
		}
	}
}

func TestExprString(t *testing.T) {
	e, err := ParseExpr("A && !(B || C) && D != y")
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	for _, want := range []string{"A", "B", "C", "D", "&&", "||", "!", "!="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// Symbols() must list each referenced symbol.
	syms := e.Symbols(nil)
	if len(syms) != 4 {
		t.Errorf("Symbols = %v, want 4 entries", syms)
	}
}

func TestChoiceGroup(t *testing.T) {
	tree := parseOne(t, `
choice
	bool "CPU governor"
	default GOV_ONDEMAND

config GOV_PERFORMANCE
	bool "performance"

config GOV_ONDEMAND
	bool "ondemand"

config GOV_POWERSAVE
	bool "powersave"

endchoice

config OTHER
	bool "other"
`)
	if len(tree.choices) != 1 {
		t.Fatalf("choices = %d", len(tree.choices))
	}
	ch := tree.choices[0]
	if len(ch.Members) != 3 || ch.Default != "GOV_ONDEMAND" {
		t.Fatalf("choice = %+v", ch)
	}
	cfg := tree.AllYesConfig()
	// Exactly the default member is enabled — allyesconfig is forced to
	// make a choice (paper §VI).
	if cfg.Value("GOV_ONDEMAND") != Yes {
		t.Errorf("default member = %v, want y", cfg.Value("GOV_ONDEMAND"))
	}
	if cfg.Value("GOV_PERFORMANCE") != No || cfg.Value("GOV_POWERSAVE") != No {
		t.Errorf("non-default members should be n: %v / %v",
			cfg.Value("GOV_PERFORMANCE"), cfg.Value("GOV_POWERSAVE"))
	}
	if cfg.Value("OTHER") != Yes {
		t.Errorf("symbols outside the choice unaffected: %v", cfg.Value("OTHER"))
	}
}

func TestChoiceWithoutDefaultPicksFirst(t *testing.T) {
	tree := parseOne(t, `
choice
	bool "pick one"

config FIRST
	bool "first"

config SECOND
	bool "second"

endchoice
`)
	cfg := tree.AllYesConfig()
	if cfg.Value("FIRST") != Yes || cfg.Value("SECOND") != No {
		t.Errorf("FIRST/SECOND = %v/%v, want y/n", cfg.Value("FIRST"), cfg.Value("SECOND"))
	}
}

func TestChoiceDefconfigOverride(t *testing.T) {
	tree := parseOne(t, `
choice
	bool "pick"
	default A_OPT

config A_OPT
	bool "a"

config B_OPT
	bool "b"

endchoice
`)
	cfg, err := tree.ApplyDefconfig("CONFIG_B_OPT=y\n# CONFIG_A_OPT is not set\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Value("B_OPT") != Yes || cfg.Value("A_OPT") != No {
		t.Errorf("A/B = %v/%v, want n/y (defconfig overrides the choice)",
			cfg.Value("A_OPT"), cfg.Value("B_OPT"))
	}
}

func TestChoiceParseErrors(t *testing.T) {
	for _, bad := range []string{
		"choice\nconfig X\n\tbool \"x\"\n",       // unterminated
		"endchoice\n",                            // endchoice without choice
		"choice\nchoice\nendchoice\nendchoice\n", // nested
	} {
		if _, err := Parse(mapSource{"Kconfig": bad}, "Kconfig"); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}
