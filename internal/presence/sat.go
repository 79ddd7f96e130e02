package presence

import "math/bits"

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

// wordBits is log2 of the assignments one uint64 word evaluates at once.
const wordBits = 6

// columns[i] holds symbol i's value in each of a word's 64 rows: row r
// sets symbol i exactly when bit i of r is set.
var columns = [wordBits]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// satSymbols is a formula's distinct symbols in sorted order, bounded at
// MaxSatSymbols so collecting a wide formula gives up at the first symbol
// past the bound. It lives on the caller's stack.
type satSymbols struct {
	n     int
	names [MaxSatSymbols]string
}

// collect adds f's symbols, keeping names sorted, and reports false once
// more than MaxSatSymbols are distinct.
func (s *satSymbols) collect(f Formula) bool {
	switch n := f.(type) {
	case symF:
		name := string(n)
		i := 0
		for i < s.n && s.names[i] < name {
			i++
		}
		if i < s.n && s.names[i] == name {
			return true
		}
		if s.n == MaxSatSymbols {
			return false
		}
		copy(s.names[i+1:s.n+1], s.names[i:s.n])
		s.names[i] = name
		s.n++
	case notF:
		return s.collect(n.x)
	case andF:
		return s.collect(n.l) && s.collect(n.r)
	case orF:
		return s.collect(n.l) && s.collect(n.r)
	}
	return true
}

// eval evaluates f over the 64 rows of word w at once: row r of word w is
// assignment w<<wordBits|r, whose bit i sets the i-th sorted symbol. Bit r
// of the result is f's value under that assignment.
func (s *satSymbols) eval(f Formula, w uint64) uint64 {
	switch n := f.(type) {
	case constF:
		if n {
			return ^uint64(0)
		}
		return 0
	case symF:
		i := 0
		for s.names[i] != string(n) {
			i++
		}
		if i < wordBits {
			return columns[i]
		}
		return -(w >> (i - wordBits) & 1)
	case notF:
		return ^s.eval(n.x, w)
	case andF:
		if l := s.eval(n.l, w); l != 0 {
			return l & s.eval(n.r, w)
		}
		return 0
	case orF:
		if l := s.eval(n.l, w); l != ^uint64(0) {
			return l | s.eval(n.r, w)
		}
		return ^uint64(0)
	}
	return 0
}

// enumerate tries every assignment over f's sorted symbols, 64 per word,
// the first symbol flipping fastest, and with witness returns the first
// that satisfies f. With at most wordBits symbols a single tree walk
// decides f; each further symbol doubles the words. A word's rows beyond
// 2^n for n < wordBits repeat earlier rows, so the lowest set bit is
// always a real assignment.
func enumerate(f Formula, witness bool) (map[string]bool, SatResult) {
	if c, ok := f.(constF); ok {
		if bool(c) {
			return nil, SatYes
		}
		return nil, SatNo
	}
	var s satSymbols
	if !s.collect(f) {
		return nil, SatUnknown
	}
	words := uint64(1)
	if s.n > wordBits {
		words <<= s.n - wordBits
	}
	for w := uint64(0); w < words; w++ {
		v := s.eval(f, w)
		if v == 0 {
			continue
		}
		if !witness {
			return nil, SatYes
		}
		row := w<<wordBits | uint64(bits.TrailingZeros64(v))
		out := make(map[string]bool, s.n)
		for i, name := range s.names[:s.n] {
			out[name] = row>>i&1 != 0
		}
		return out, SatYes
	}
	return nil, SatNo
}
