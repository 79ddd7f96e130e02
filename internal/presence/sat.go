package presence

// MaxSatSymbols bounds SAT-by-enumeration. Presence conditions are shallow
// — a nesting stack plus a Kbuild gate plus a few dependency clauses rarely
// exceeds a dozen distinct symbols — so 2^20 assignments is a comfortable
// ceiling; anything wider is reported SatUnknown.
const MaxSatSymbols = 20

// SatResult is the tri-state answer of the bounded SAT check. The zero
// value is SatUnknown, so a forgotten initialization can never claim a
// proof in either direction.
type SatResult int8

const (
	// SatUnknown means the enumeration bound was exceeded: the formula has
	// more than MaxSatSymbols distinct symbols and nothing was proven.
	// Consumers proving deadness MUST treat this as "possibly satisfiable";
	// consumers proving liveness must treat it as "possibly unsatisfiable".
	SatUnknown SatResult = iota
	// SatNo means the formula is exactly unsatisfiable.
	SatNo
	// SatYes means a satisfying assignment exists.
	SatYes
)

func (r SatResult) String() string {
	switch r {
	case SatNo:
		return "unsat"
	case SatYes:
		return "sat"
	}
	return "unknown"
}

// Decide reports the satisfiability of f by enumerating assignments over
// its symbols, giving up explicitly (SatUnknown) beyond MaxSatSymbols.
// Earlier revisions also offered a two-valued view that folded the gave-up
// case into "satisfiable", which was sound for dead-line proofs but invited
// misuse the moment a caller asked the opposite question; the tri-state
// makes the bound impossible to overlook.
func Decide(f Formula) SatResult {
	_, r := enumerate(f, false)
	return r
}

// SatAssignment is Decide plus a witness: when f is satisfiable within the
// enumeration bound, it returns one satisfying assignment over f's symbols
// (the first in enumeration order). exact is false beyond the bound, where
// nothing was proven and no assignment is returned.
func SatAssignment(f Formula) (assign map[string]bool, sat, exact bool) {
	a, r := enumerate(f, true)
	return a, r != SatNo, r != SatUnknown
}

// enumerate tries every assignment over f's sorted symbols, the first
// symbol flipping fastest, and with witness returns a copy of the first
// that satisfies f. Without witness the working map never leaves the
// function, so Decide allocates it on the stack.
func enumerate(f Formula, witness bool) (map[string]bool, SatResult) {
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
