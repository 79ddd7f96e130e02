package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile. A
// p99 over fewer than 1,000 samples rests on a handful of points, so the
// benchmark reports the highest percentile that still has this many
// samples above it, together with the sample count.
const minTail = 10

// tailPct is one reported percentile: the value, which percentile it
// actually is after the minTail rule, and how many samples it came from.
type tailPct struct {
	Value   float64 `json:"value"`
	Pct     float64 `json:"pct"`
	Samples int     `json:"samples"`
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs,
// lowered to the highest percentile with at least minTail samples beyond
// it. With minTail or fewer samples no percentile qualifies and the
// median stands in (Pct 0.5). xs is not modified.
func percentile(xs []float64, p float64) tailPct {
	n := len(xs)
	if n == 0 {
		return tailPct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= minTail {
		return tailPct{Value: median(s), Pct: 0.5, Samples: n}
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		rank = n - minTail
	}
	return tailPct{Value: s[rank-1], Pct: float64(rank) / float64(n), Samples: n}
}

// median of xs (the mean of the middle pair for even counts).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opMedians takes passes that timed the same operations in the same order
// and returns each operation's median over the passes. A burst of load
// from outside the process slows the operations it lands on in one pass;
// the median of an operation's repeats drops that, where pooling every
// pass would keep it in the tail.
func opMedians(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for i := range out {
		for j, p := range passes {
			col[j] = p[i]
		}
		out[i] = median(col)
	}
	return out
}

// ratio is a/b, 0 when b is 0 (a layer that did no work this run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
