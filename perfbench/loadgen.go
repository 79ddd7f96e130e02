package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// zipfStream draws commit indices from a seeded Zipf distribution over n
// items. Rank k is mapped through a seeded permutation, so the popular
// commits are spread over the window instead of being its oldest ones.
type zipfStream struct {
	z    *rand.Zipf
	perm []int
	seen map[int]bool
	// draws and repeats count the requests drawn and those whose commit
	// had been drawn before (the share the service's result cache can
	// serve).
	draws, repeats int
}

// zipfS is the Zipf exponent: requests concentrate on popular commits, as
// a service answering several janitors who re-check their own series
// sees. zipfV flattens the head (P(rank k) ∝ (zipfV+k)^-zipfS) so the
// most popular commit draws under 1% of requests and the timed figures
// weigh several hundred commits' costs (the effective count, 1/Σp², is
// about 500 over a 2,000-commit window), not whichever few a seed ranks
// first: with zipfV 5 (4% for the top commit, effective count 113) two
// seeds' throughputs differed by a tenth on a quiet host.
const (
	zipfS = 1.1
	zipfV = 40
)

func newZipfStream(seed int64, n int) *zipfStream {
	r := rand.New(rand.NewSource(seed))
	return &zipfStream{
		z:    rand.NewZipf(r, zipfS, zipfV, uint64(n-1)),
		perm: r.Perm(n),
		seen: make(map[int]bool),
	}
}

// next draws one index and updates the repeat accounting.
func (z *zipfStream) next() int {
	i := z.perm[z.z.Uint64()]
	z.draws++
	if z.seen[i] {
		z.repeats++
	}
	z.seen[i] = true
	return i
}

// take draws n indices.
func (z *zipfStream) take(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = z.next()
	}
	return out
}

func (z *zipfStream) repeatShare() float64 { return ratio(float64(z.repeats), float64(z.draws)) }

// arrival is one open-loop request's timeline, relative to the phase
// start: when it was due, when a connection actually sent it, and when
// its last response byte arrived.
type arrival struct {
	Due, Sent, Done time.Duration
	OK              bool
}

// Latency counts from the due time, so a stalled connection charges its
// wait to every request queued behind it (no coordinated omission).
func (a arrival) Latency() time.Duration { return a.Done - a.Due }

// Late is how far behind schedule the generator sent the request.
func (a arrival) Late() time.Duration { return a.Sent - a.Due }

// openLoop sends n requests due at i/rate after the phase start, over
// conns connections (one goroutine each). A connection takes the next due
// request only when its previous one finished, so when every connection
// is busy the schedule slips and the slip shows as lateness. do performs
// request i and reports success. openLoop returns once every request has
// finished.
func openLoop(n int, rate float64, conns int, do func(i int) bool) []arrival {
	out := make([]arrival, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				ok := do(i)
				out[i] = arrival{Due: due, Sent: sent, Done: time.Since(start), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// backlogGrowth is how much later than the first quarter of a phase the
// last quarter's median request was sent. A server keeping up shows ~0;
// one falling behind shows lateness rising across the phase.
func backlogGrowth(arr []arrival) time.Duration {
	q := len(arr) / 4
	if q == 0 {
		return 0
	}
	first := make([]float64, 0, q)
	last := make([]float64, 0, q)
	for i := 0; i < q; i++ {
		first = append(first, float64(arr[i].Late()))
		last = append(last, float64(arr[len(arr)-q+i].Late()))
	}
	return time.Duration(median(last) - median(first))
}

// maxGrowth is the backlog growth beyond which an open-loop phase is
// falling behind its schedule.
const maxGrowth = 10 * time.Millisecond
