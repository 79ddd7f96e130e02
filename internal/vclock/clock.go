package vclock

import "time"

// Clock accumulates charged virtual durations into a monotone "now".
// Every consumer of the cost model that wants to *stamp* events (rather
// than just sum durations) advances a Clock by exactly the durations it
// charges, so span start/end times can be read off without each caller
// re-deriving virtual time from stage totals.
//
// A Clock is single-writer: the checker processes one patch on one
// goroutine, so each patch gets its own Clock (sharing one across patches
// would both race and entangle their timelines).
type Clock struct {
	now time.Duration
}

// NewClock returns a fresh per-patch clock starting at virtual zero.
// It hangs off the Model only so call sites that already hold the cost
// model do not need a second import; the costs themselves are charged
// explicitly via Advance.
func (m *Model) NewClock() *Clock { return &Clock{} }

// Advance moves the clock forward by d and returns the new now.
// Negative durations are ignored: virtual time never runs backwards,
// even if a caller misprices an operation.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d > 0 {
		c.now += d
	}
	return c.now
}

// Now returns the current virtual time since the clock was created.
func (c *Clock) Now() time.Duration { return c.now }
