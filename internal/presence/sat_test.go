package presence

import (
	"fmt"
	"testing"
)

// contradiction builds (x0 ∨ ... ∨ x(n-2)) ∧ xlast ∧ ¬xlast over exactly n
// distinct symbols: unsatisfiable regardless of the padding disjuncts.
func contradiction(n int) Formula {
	pad := False
	for i := 0; i < n-1; i++ {
		pad = Or(pad, Symbol(fmt.Sprintf("CONFIG_X%02d", i)))
	}
	last := Symbol("CONFIG_XLAST")
	return And(pad, last, Not(last))
}

func TestDecideConstants(t *testing.T) {
	if got := Decide(True); got != SatYes {
		t.Fatalf("Decide(True) = %v, want SatYes", got)
	}
	if got := Decide(False); got != SatNo {
		t.Fatalf("Decide(False) = %v, want SatNo", got)
	}
	if got := Decide(Symbol("CONFIG_A")); got != SatYes {
		t.Fatalf("Decide(A) = %v, want SatYes", got)
	}
	if got := Decide(And(Symbol("CONFIG_A"), Not(Symbol("CONFIG_A")))); got != SatNo {
		t.Fatalf("Decide(A && !A) = %v, want SatNo", got)
	}
}

// TestDecideBoundary pins the enumeration bound: a contradiction over
// exactly MaxSatSymbols symbols is proven unsat, while the same shape one
// symbol wider must come back SatUnknown — never SatYes, which would let a
// consumer misread "gave up" as "satisfiable", and never SatNo, which
// would be an unproven deadness claim.
func TestDecideBoundary(t *testing.T) {
	at := contradiction(MaxSatSymbols)
	if n := len(Symbols(at)); n != MaxSatSymbols {
		t.Fatalf("fixture has %d symbols, want %d", n, MaxSatSymbols)
	}
	if got := Decide(at); got != SatNo {
		t.Fatalf("Decide(%d-symbol contradiction) = %v, want SatNo", MaxSatSymbols, got)
	}

	over := contradiction(MaxSatSymbols + 1)
	if n := len(Symbols(over)); n != MaxSatSymbols+1 {
		t.Fatalf("fixture has %d symbols, want %d", n, MaxSatSymbols+1)
	}
	if got := Decide(over); got != SatUnknown {
		t.Fatalf("Decide(%d-symbol contradiction) = %v, want SatUnknown", MaxSatSymbols+1, got)
	}

}

// TestDecideOverBoundSatisfiable: a wide but satisfiable formula also
// reports SatUnknown — the bound is about width, not truth, and the audit
// counts these rather than guessing.
func TestDecideOverBoundSatisfiable(t *testing.T) {
	f := False
	for i := 0; i <= MaxSatSymbols; i++ {
		f = Or(f, Symbol(fmt.Sprintf("CONFIG_W%02d", i)))
	}
	if got := Decide(f); got != SatUnknown {
		t.Fatalf("Decide(wide disjunction) = %v, want SatUnknown", got)
	}
}

func TestSatResultString(t *testing.T) {
	for _, tc := range []struct {
		r    SatResult
		want string
	}{{SatUnknown, "unknown"}, {SatNo, "unsat"}, {SatYes, "sat"}} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.r, got, tc.want)
		}
	}
}

func TestRegions(t *testing.T) {
	src := "int a;\n" + // 1
		"#ifdef CONFIG_A\n" + // 2 (directive: enclosing cond = True)
		"int b;\n" + // 3
		"int c;\n" + // 4
		"#endif\n" + // 5
		"int d;\n" + // 6
		"#if defined(CONFIG_B) && !defined(CONFIG_B)\n" + // 7
		"int e;\n" + // 8
		"#endif\n" // 9
	f := Analyze("t.c", src)
	regs := f.Regions()
	if len(regs) != 2 {
		t.Fatalf("got %d regions, want 2: %+v", len(regs), regs)
	}
	if regs[0].Start != 3 || regs[0].End != 4 {
		t.Errorf("region 0 = [%d,%d], want [3,4]", regs[0].Start, regs[0].End)
	}
	if got := Decide(regs[0].Cond); got != SatYes {
		t.Errorf("region 0 cond %v, want SatYes", got)
	}
	if regs[1].Start != 8 || regs[1].End != 8 {
		t.Errorf("region 1 = [%d,%d], want [8,8]", regs[1].Start, regs[1].End)
	}
	if got := Decide(regs[1].Cond); got != SatNo {
		t.Errorf("region 1 cond %v, want SatNo", got)
	}
}
