// Package trace is the pipeline's deterministic, virtual-clock-native
// tracing layer. Spans are stamped with vclock virtual times — never wall
// clock — so a trace is a *reproducible artifact*: byte-identical at any
// -workers count and under any result-cache state, exactly like the JSON
// report (DESIGN.md "Observability model").
//
// Discipline, in brief:
//
//   - Each patch gets its own Recorder and vclock.Clock; every virtual
//     duration the checker charges is advanced on that clock exactly once,
//     so span edges line up with the reported stage totals.
//   - Per-patch span trees are merged in submission order (the same
//     in-order merge sched.Map uses for results), never in completion
//     order.
//   - Nothing warmth- or worker-dependent is recorded. Cache outcomes are
//     stamped post-merge from content keys (first occurrence in
//     submission order = "compute", repeats = "reuse") — the canonical
//     outcome an uncached sequential run would observe, mirroring how
//     reported durations always charge the full recompute price.
package trace

import (
	"time"

	"jmake/internal/vclock"
)

// Span kinds. The kind doubles as the stage name in summaries, so these
// match the stage vocabulary of the evaluation's pipeline section
// (eval.StageVirtual: "config", "make.i", "make.o", "backoff").
const (
	KindSession     = "session"
	KindPatch       = "patch"
	KindClassify    = "classify"
	KindStatic      = "static-presence"
	KindFile        = "file"
	KindArch        = "arch"
	KindConfig      = "config"
	KindMakeI       = "make.i"
	KindWitnessScan = "witness-scan"
	KindMakeO       = "make.o"
	KindCacheProbe  = "cache-probe"
	KindBackoff     = "backoff"
	KindHFile       = "h-file"
	KindCoverage    = "coverage"
	KindFinalize    = "finalize"
)

// Attr is one structured key=value attribute on a span. Attribute order
// is preserved (it is part of the exported bytes).
type Attr struct {
	Key, Value string
}

// A constructs a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one node in a patch's span tree. Start/End are virtual times
// relative to the patch's own clock (each patch starts at virtual zero).
type Span struct {
	Kind     string
	Start    time.Duration
	End      time.Duration
	Attrs    []Attr
	Children []*Span

	// Key is the span's content identity (compile cache probe key or
	// config identity hash) used for post-merge cache-outcome stamping.
	// Zero means "not a cacheable operation".
	Key uint64
}

// Dur returns the span's virtual duration.
func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Add appends attributes. Safe on a nil span (no-op), so call sites can
// pass around optional spans without guarding.
func (s *Span) Add(attrs ...Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Attr returns the value of the first attribute named key.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Walk visits s and its descendants depth-first in recorded order.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Recorder builds one patch's span tree against a per-patch virtual
// clock. It is single-goroutine (one patch is checked by one worker) and
// nil-safe: every method on a nil *Recorder is a no-op, so untraced runs
// pay nothing — the same pattern as faultinject.Injector.
type Recorder struct {
	clock *vclock.Clock
	root  *Span
	open  []*Span // stack of open spans; root at index 0
}

// NewRecorder starts a patch trace rooted at a span of the given kind.
func NewRecorder(kind string, clock *vclock.Clock, attrs ...Attr) *Recorder {
	root := &Span{Kind: kind, Attrs: attrs}
	return &Recorder{clock: clock, root: root, open: []*Span{root}}
}

// Root returns the root span (nil for a nil recorder).
func (r *Recorder) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Now returns the recorder's current virtual time.
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.clock.Now()
}

// Advance moves the virtual clock forward by d without opening a span.
// Use it when a span's duration is known only as a lump sum (the builder
// prices a whole make invocation at once).
func (r *Recorder) Advance(d time.Duration) {
	if r == nil {
		return
	}
	r.clock.Advance(d)
}

// Open starts a child span of the innermost open span at the current
// virtual time and returns its handle.
func (r *Recorder) Open(kind string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	s := &Span{Kind: kind, Start: r.clock.Now(), Attrs: attrs}
	parent := r.open[len(r.open)-1]
	parent.Children = append(parent.Children, s)
	r.open = append(r.open, s)
	return s
}

// Close ends s (and any spans opened inside it that are still open) at
// the current virtual time. Unknown or nil spans are ignored.
func (r *Recorder) Close(s *Span) {
	if r == nil || s == nil {
		return
	}
	for i := len(r.open) - 1; i > 0; i-- {
		top := r.open[i]
		top.End = r.clock.Now()
		if top == s {
			r.open = r.open[:i]
			return
		}
	}
}

// Leaf records a closed child span of duration d, advancing the clock.
// This is the charge-and-stamp primitive: one call per priced operation.
func (r *Recorder) Leaf(kind string, d time.Duration, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	s := r.Open(kind, attrs...)
	r.clock.Advance(d)
	r.Close(s)
	return s
}

// Mark records a zero-duration child span at the current virtual time.
func (r *Recorder) Mark(kind string, attrs ...Attr) *Span {
	return r.Leaf(kind, 0, attrs...)
}

// Finish closes every open span (including the root) and returns the
// completed tree. The recorder must not be used afterwards.
func (r *Recorder) Finish() *Span {
	if r == nil {
		return nil
	}
	now := r.clock.Now()
	for _, s := range r.open {
		s.End = now
	}
	r.open = r.open[:1]
	return r.root
}

// Trace is a session's merged trace: one top-level span per processed
// patch, in submission order.
type Trace struct {
	Spans []*Span
}

// Stamp assigns the deterministic cache-outcome attribute to every span
// that carries a content key: the first occurrence of a key in submission
// order is "compute", every later one is "reuse". This classification is
// what the canonical uncached sequential execution would observe, so it
// is invariant across -workers counts and cache off/cold/warm — unlike
// the live hit/miss counters, which are warmth-dependent and stay in the
// volatile runtime metrics.
//
// Group spans (make.i over several files) inherit "compute" if any child
// file computes, else "reuse".
func (t *Trace) Stamp() {
	seen := make(map[uint64]bool)
	var walk func(s *Span) bool // reports whether any descendant computed
	walk = func(s *Span) bool {
		computed := false
		if s.Key != 0 {
			if _, ok := s.Attr("cache"); !ok {
				outcome := "reuse"
				if !seen[s.Key] {
					seen[s.Key] = true
					outcome = "compute"
					computed = true
				}
				s.Add(A("cache", outcome))
			}
		}
		childComputed := false
		for _, c := range s.Children {
			if walk(c) {
				childComputed = true
			}
		}
		// A make.i group span preprocesses several files in one invocation
		// (and a make.o span carries its probe identity on a cache-probe
		// child); either inherits "compute" if any keyed child computed.
		if (s.Kind == KindMakeI || s.Kind == KindMakeO) && s.Key == 0 && s.hasKeyedChild() {
			if _, ok := s.Attr("cache"); !ok {
				outcome := "reuse"
				if childComputed {
					outcome = "compute"
				}
				s.Add(A("cache", outcome))
			}
		}
		return computed || childComputed
	}
	for _, s := range t.Spans {
		walk(s)
	}
}

func (s *Span) hasKeyedChild() bool {
	for _, c := range s.Children {
		if c.Key != 0 {
			return true
		}
	}
	return false
}
