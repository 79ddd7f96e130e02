package vclock

import (
	"testing"
	"time"
)

// The clock must be monotone under any charge sequence, including the
// zero and negative durations a buggy pricing path could produce.
func TestClockMonotonic(t *testing.T) {
	m := DefaultModel(7)
	c := m.NewClock()
	if c.Now() != 0 {
		t.Fatalf("fresh clock Now() = %v, want 0", c.Now())
	}
	charges := []time.Duration{
		m.ConfigCreate(2600, "x86"),
		0,
		m.MakeI(true, 84, []FileWork{{Lines: 1200, Includes: 30}}, "a.c"),
		-time.Second, // must be ignored, not rewind
		m.Backoff(2, "a.c"),
		m.MakeO(false, 84, 900, 0, "a.c"),
	}
	prev := c.Now()
	var sum time.Duration
	for i, d := range charges {
		got := c.Advance(d)
		if got < prev {
			t.Fatalf("charge %d (%v): clock went backwards %v -> %v", i, d, prev, got)
		}
		if got != c.Now() {
			t.Fatalf("Advance returned %v but Now() = %v", got, c.Now())
		}
		if d > 0 {
			sum += d
		}
		prev = got
	}
	if c.Now() != sum {
		t.Fatalf("clock accumulated %v, want sum of positive charges %v", c.Now(), sum)
	}
}
