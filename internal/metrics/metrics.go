// Package metrics is the pipeline's single home for counters, gauges and
// histograms. The cache hit/miss counters, the token-cache counters, the
// effective-time ledgers and the fault tallies are series in one
// Registry, and reports read views over it (eval builds its pipeline
// section once, in its JSON shape), so a number can never drift between
// the place it is incremented and the place it is reported.
//
// Determinism discipline: counters and gauges are integers updated with
// atomic adds, which commute — their final values are invariant under any
// worker interleaving as long as the *set* of increments is deterministic
// (the compute-exactly-once caches guarantee that for cache counters).
// Durations are stored as integer nanoseconds for the same reason; float
// accumulation is left to readers, who see only the final sums.
//
// Some series are volatile by nature and stay out of reproducible
// reports: result_cache_saved_ns{stage}, warm_saved_ns{ledger=config|setup}
// and result_cache_loaded_entries measure what cache warmth saved, so
// they depend on warmth, and the saved-time ledgers also on which check
// of an interleaving pays a computation first.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension on a metric. Metrics with the same
// name but different label sets are distinct series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer. The zero value is ready
// to use, but series obtained from a Registry are the norm.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// AddDuration adds d as integer nanoseconds (negative d is ignored).
func (c *Counter) AddDuration(d time.Duration) {
	if d > 0 {
		c.v.Add(uint64(d))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Duration reinterprets the count as nanoseconds.
func (c *Counter) Duration() time.Duration { return time.Duration(c.v.Load()) }

// Gauge is a settable integer (e.g. entries resident in a cache).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Observations are
// float64; bucket bounds are upper-inclusive, with an implicit +Inf
// bucket at the end. Count and Sum are exact for integer observations.
//
// The hot path (Observe) is lock-free: the bucket is found by binary
// search over the immutable bounds (upper-inclusive, so the first bound
// >= x) and bumped with an atomic add — every request-latency sample used
// to take one shared mutex and a linear bucket scan. The sum accumulates
// through a CAS loop on the float bits. Readers snapshot the buckets
// atomically; Quantile derives its total from that snapshot (not the
// count field), so a quantile computed mid-Observe is internally
// consistent.
type Histogram struct {
	bounds  []float64 // immutable after construction
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	h.buckets[sort.SearchFloat64s(h.bounds, x)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns (bounds, counts); counts has one extra slot for +Inf.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	counts := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return append([]float64(nil), h.bounds...), counts
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket holding the target rank, the standard Prometheus-style
// estimate. Samples beyond the last finite bound are reported as that
// bound (the estimate cannot exceed what the buckets can resolve).
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	_, counts := h.Buckets()
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, b := range h.bounds {
		n := float64(counts[i])
		if cum+n >= target {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if n == 0 {
				return b
			}
			return lower + (b-lower)*((target-cum)/n)
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// series is one registered metric with its structured identity kept
// beside the value, so exporters (the JSON snapshot, the Prometheus text
// exposition) can sort and render by (name, label set) instead of
// re-parsing flattened keys.
type series struct {
	kind    string // "counter", "gauge", "histogram"
	name    string
	labels  []Label // sorted by key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// labelKey renders the sorted label set as the stable "{k=v}{k=v}" tail
// used for map keys and snapshot names.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// Registry hands out metric series keyed by (name, labels). Lookups are
// cheap but callers on hot paths should hold the returned handle.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	series []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// lookup finds or creates the series for (kind, name, labels). Caller
// must not hold mu.
func (r *Registry) lookup(kind, name string, labels []Label) *series {
	ls := sortLabels(labels)
	key := kind + ":" + name + labelKey(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byKey[key]
	if !ok {
		s = &series{kind: kind, name: name, labels: ls}
		r.byKey[key] = s
		r.series = append(r.series, s)
	}
	return s
}

// Counter returns the counter series for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.lookup("counter", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Attach makes c the counter series for (name, labels), in place of any
// counter the series held, so a counter made in another registry reports
// here too.
func (r *Registry) Attach(c *Counter, name string, labels ...Label) {
	s := r.lookup("counter", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.counter = c
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.lookup("gauge", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns the histogram series for (name, labels) with the
// given bucket upper bounds (ignored if the series already exists).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup("histogram", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		s.hist = &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
	}
	return s.hist
}

// sortedSeries snapshots the series list fully sorted by metric name,
// then label set, then kind — the one order every exporter uses, so
// repeated scrapes of an idle registry are byte-identical however the
// series were created.
func (r *Registry) sortedSeries() []*series {
	r.mu.Lock()
	out := append([]*series(nil), r.series...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		li, lj := labelKey(out[i].labels), labelKey(out[j].labels)
		if li != lj {
			return li < lj
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// Sample is one series value in a Snapshot dump.
type Sample struct {
	Kind  string // "counter", "gauge", "histogram"
	Name  string // full series key incl. labels
	Value string // rendered value
}

// Snapshot returns every series fully sorted by metric name then label
// set (kind breaks the vanishingly rare tie), for tests and debug dumps.
// Sorting (not insertion order) keeps the dump deterministic under
// concurrent series creation, and the name-major order keeps repeated
// idle scrapes byte-identical.
func (r *Registry) Snapshot() []Sample {
	sorted := r.sortedSeries()
	out := make([]Sample, 0, len(sorted))
	for _, s := range sorted {
		name := s.name + labelKey(s.labels)
		switch s.kind {
		case "counter":
			out = append(out, Sample{Kind: "counter", Name: name, Value: fmt.Sprintf("%d", s.counter.Value())})
		case "gauge":
			out = append(out, Sample{Kind: "gauge", Name: name, Value: fmt.Sprintf("%d", s.gauge.Value())})
		case "histogram":
			out = append(out, Sample{Kind: "histogram", Name: name, Value: fmt.Sprintf("count=%d sum=%g", s.hist.Count(), s.hist.Sum())})
		}
	}
	return out
}
