package presence

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// referenceEnumerate is the map-based enumeration Decide and SatAssignment
// used before they evaluated 64 assignments per word: every assignment
// over f's sorted symbols, the first symbol flipping fastest, one Eval
// each. The word-parallel engine must give the same result and the same
// witness on every formula.
func referenceEnumerate(f Formula, witness bool) (map[string]bool, SatResult) {
	if c, ok := f.(constF); ok {
		if bool(c) {
			return nil, SatYes
		}
		return nil, SatNo
	}
	syms := Symbols(f)
	if len(syms) > MaxSatSymbols {
		return nil, SatUnknown
	}
	assign := make(map[string]bool, len(syms))
	for mask := uint64(0); mask < uint64(1)<<len(syms); mask++ {
		for i, s := range syms {
			assign[s] = mask&(1<<i) != 0
		}
		if !Eval(f, assign) {
			continue
		}
		if !witness {
			return nil, SatYes
		}
		out := make(map[string]bool, len(assign))
		for k, v := range assign {
			out[k] = v
		}
		return out, SatYes
	}
	return nil, SatNo
}

// matchReference checks Decide and SatAssignment on f against the
// reference enumeration: result, witness map and exact flag. The
// reference's witness run also yields its result.
func matchReference(t *testing.T, f Formula) SatResult {
	t.Helper()
	wantAssign, want := referenceEnumerate(f, true)
	if got := Decide(f); got != want {
		t.Fatalf("Decide(%v) = %v, reference %v", f, got, want)
	}
	assign, sat, exact := SatAssignment(f)
	if sat != (want != SatNo) || exact != (want != SatUnknown) || !reflect.DeepEqual(assign, wantAssign) {
		t.Fatalf("SatAssignment(%v) = %v, sat %v, exact %v; reference %v (%v)", f, assign, sat, exact, wantAssign, want)
	}
	return want
}

// satSymbolName spells symbol k so that sorted order differs from k's
// order, which the witness's row-to-symbol mapping must follow.
func satSymbolName(k int) string {
	return fmt.Sprintf("CONFIG_S%02d", (k*7)%25)
}

// randomFormula builds a formula from constants, Not, And and Or over
// symbols 0..nsym-1.
func randomFormula(r *rand.Rand, nsym, depth int) Formula {
	if depth == 0 || r.Intn(5) == 0 {
		switch k := r.Intn(nsym + 2); k {
		case nsym:
			return True
		case nsym + 1:
			return False
		default:
			return Symbol(satSymbolName(k))
		}
	}
	switch r.Intn(3) {
	case 0:
		return Not(randomFormula(r, nsym, depth-1))
	case 1:
		return And(randomFormula(r, nsym, depth-1), randomFormula(r, nsym, depth-1))
	}
	return Or(randomFormula(r, nsym, depth-1), randomFormula(r, nsym, depth-1))
}

// TestDecideMatchesReference pins the word-parallel engine to the
// reference on seeded random formulas over 1-24 symbols. Every hundredth
// formula over more than MaxSatSymbols symbols is widened to use them
// all, so the give-up path is pinned alongside sat and unsat answers.
func TestDecideMatchesReference(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	r := rand.New(rand.NewSource(20))
	var tally [3]int
	for i := 0; i < n; i++ {
		nsym := 1 + r.Intn(24)
		f := randomFormula(r, nsym, 1+r.Intn(6))
		if i%100 == 0 && nsym > MaxSatSymbols {
			all := make([]Formula, nsym)
			for k := range all {
				all[k] = Symbol(satSymbolName(k))
			}
			f = And(f, Or(all...))
		}
		tally[matchReference(t, f)]++
	}
	t.Logf("%d formulas: %d sat, %d unsat, %d unknown", n, tally[SatYes], tally[SatNo], tally[SatUnknown])
	for res, c := range tally {
		if c == 0 {
			t.Errorf("no formula came out %v; the generator no longer covers every outcome", SatResult(res))
		}
	}
}

// FuzzDecide builds a formula from the fuzz bytes, postfix over a stack,
// and checks Decide and SatAssignment against the reference. Each byte's
// top two bits pick the operation: push a symbol (one of 22, or a
// constant), Not, And, or Or; the stack left over is conjoined.
func FuzzDecide(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x80, 0x00, 0x40, 0x80})                   // (s0 && s1) && !s0
	f.Add([]byte{0x02, 0x03, 0xc0, 0x04, 0x05, 0xc0, 0x80})             // (s2 || s3) && (s4 || s5)
	f.Add([]byte{0x16, 0x40, 0x17, 0xc0})                               // !true || false
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}) // nine free symbols
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			t.Skip("oversized input")
		}
		var stack []Formula
		pop := func() Formula {
			if len(stack) == 0 {
				return Symbol(satSymbolName(0))
			}
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return x
		}
		for _, b := range data {
			switch b >> 6 {
			case 0:
				switch k := int(b&63) % 24; k {
				case 22:
					stack = append(stack, True)
				case 23:
					stack = append(stack, False)
				default:
					stack = append(stack, Symbol(satSymbolName(k)))
				}
			case 1:
				stack = append(stack, Not(pop()))
			case 2:
				stack = append(stack, And(pop(), pop()))
			default:
				stack = append(stack, Or(pop(), pop()))
			}
		}
		matchReference(t, And(stack...))
	})
}
