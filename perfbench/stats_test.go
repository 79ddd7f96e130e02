package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n       int
		p       float64
		want    float64
		wantPct float64
	}{
		// 1,000 samples: nearest-rank p99 is the 990th value, with exactly
		// ten samples beyond it.
		{1000, 0.99, 990, 0.99},
		// 500 samples: p99 would leave five beyond, so the rule lowers it
		// to the 490th value (p98).
		{500, 0.99, 490, 0.98},
		// The median is untouched by the tail rule.
		{500, 0.5, 250, 0.5},
		// 21 samples: only rank 11 keeps ten beyond.
		{21, 0.99, 11, 11.0 / 21},
		// Ten or fewer samples: no percentile has ten beyond; the median
		// stands in.
		{10, 0.99, 5.5, 0.5},
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.p)
		if got.Value != c.want || math.Abs(got.Pct-c.wantPct) > 1e-12 || got.Samples != c.n {
			t.Errorf("percentile(n=%d, p=%v) = %+v, want value %v pct %v", c.n, c.p, got, c.want, c.wantPct)
		}
		if c.n > minTail {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < minTail {
				t.Errorf("n=%d p=%v: %d samples beyond the reported value, want >= %d", c.n, c.p, beyond, minTail)
			}
		}
	}
	if got := percentile(nil, 0.99); got != (tailPct{}) {
		t.Errorf("percentile(nil) = %+v, want zero", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestOpMedians(t *testing.T) {
	// Three passes over the same four operations; a burst slows operation
	// 1 in the second pass and operation 3 in the third. Each operation's
	// median over its repeats drops the burst.
	passes := [][]float64{
		{1, 2, 3, 4},
		{1, 20, 3, 4},
		{1, 2, 3, 40},
	}
	got := opMedians(passes)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("opMedians = %v, want %v", got, want)
		}
	}
	if opMedians(nil) != nil {
		t.Error("opMedians(nil) is not empty")
	}
}
