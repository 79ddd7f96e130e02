package eval

import (
	"bytes"
	"testing"

	"jmake/internal/trace"
)

// traceBase mirrors the cache-invariance tests' parameters so the trace
// determinism suite exercises the same window.
func traceBase() Params {
	return Params{TreeSeed: 41, HistorySeed: 42, ModelSeed: 43,
		TreeScale: 0.15, CommitScale: 0.008, Trace: true}
}

// The tentpole's acceptance bar: the Chrome trace export is
// byte-identical at any worker count and under any result-cache state
// (off, in-memory, cold persistent, warm persistent) — the trace is a
// reproducible artifact like the JSON report, not a scheduling log.
func TestTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	dir := t.TempDir()

	run := func(name string, mutate func(*Params)) ([]byte, *Run) {
		p := traceBase()
		mutate(&p)
		r, err := Execute(p)
		if err != nil {
			t.Fatalf("Execute(%s): %v", name, err)
		}
		out := r.ChromeTrace()
		if len(out) == 0 {
			t.Fatalf("ChromeTrace(%s): empty", name)
		}
		if err := trace.ValidateChrome(out); err != nil {
			t.Fatalf("ValidateChrome(%s): %v", name, err)
		}
		return out, r
	}

	off, offRun := run("off", func(p *Params) { p.NoResultCache = true; p.Workers = 1 })
	inmem, _ := run("inmem", func(p *Params) { p.Workers = 2 })
	cold, _ := run("cold", func(p *Params) { p.CacheDir = dir; p.Workers = 4 })
	warm, _ := run("warm", func(p *Params) { p.CacheDir = dir; p.Workers = 8 })

	for name, out := range map[string][]byte{"inmem": inmem, "cold": cold, "warm": warm} {
		if !bytes.Equal(off, out) {
			t.Errorf("ChromeTrace(%s) differs from cache-off single-worker baseline", name)
		}
	}

	// Every make invocation the reports priced appears as exactly one
	// span, carrying arch, cache-outcome, and (for make.o) outcome
	// attributes.
	var wantConfig, wantMakeI, wantMakeO, wantBackoff int
	for _, res := range offRun.Results {
		if res.Report == nil {
			continue
		}
		wantConfig += len(res.Report.ConfigDurations)
		wantMakeI += len(res.Report.MakeIDurations)
		wantMakeO += len(res.Report.MakeODurations)
		wantBackoff += len(res.Report.BackoffDurations)
	}
	counts := make(map[string]int)
	for _, root := range offRun.Trace.Spans {
		root.Walk(func(s *trace.Span) {
			counts[s.Kind]++
			switch s.Kind {
			case trace.KindConfig:
				if _, ok := s.Attr("cache"); !ok {
					t.Fatalf("config span without cache outcome: %+v", s.Attrs)
				}
			case trace.KindMakeI, trace.KindMakeO:
				// Group spans inherit the outcome from their keyed children;
				// an invocation whose files were all unreachable has no probe
				// identity and correctly stays unstamped.
				keyed := false
				for _, c := range s.Children {
					if c.Key != 0 {
						keyed = true
					}
				}
				if _, ok := s.Attr("cache"); keyed && !ok {
					t.Fatalf("%s span with probe identity but no cache outcome: %+v", s.Kind, s.Attrs)
				}
			}
			switch s.Kind {
			case trace.KindMakeI, trace.KindMakeO, trace.KindArch, trace.KindConfig:
				if _, ok := s.Attr("arch"); !ok {
					t.Fatalf("%s span without arch: %+v", s.Kind, s.Attrs)
				}
			}
			if s.Kind == trace.KindMakeO {
				if _, ok := s.Attr("outcome"); !ok {
					t.Fatalf("make.o span without outcome: %+v", s.Attrs)
				}
			}
		})
	}
	if counts[trace.KindConfig] != wantConfig {
		t.Errorf("config spans = %d, want %d (one per ConfigDurations entry)", counts[trace.KindConfig], wantConfig)
	}
	if counts[trace.KindMakeI] != wantMakeI {
		t.Errorf("make.i spans = %d, want %d", counts[trace.KindMakeI], wantMakeI)
	}
	if counts[trace.KindMakeO] != wantMakeO {
		t.Errorf("make.o spans = %d, want %d", counts[trace.KindMakeO], wantMakeO)
	}
	if counts[trace.KindBackoff] != wantBackoff {
		t.Errorf("backoff spans = %d, want %d", counts[trace.KindBackoff], wantBackoff)
	}
	if counts[trace.KindMakeI] == 0 || counts[trace.KindMakeO] == 0 {
		t.Fatal("trace carries no compile spans — the test is vacuous")
	}

	// The stamped cache outcomes must include both classes (the window
	// recompiles shared configs and files across patches).
	var compute, reuse int
	for _, root := range offRun.Trace.Spans {
		root.Walk(func(s *trace.Span) {
			switch v, _ := s.Attr("cache"); v {
			case "compute":
				compute++
			case "reuse":
				reuse++
			}
		})
	}
	if compute == 0 || reuse == 0 {
		t.Errorf("cache outcomes not exercised: compute=%d reuse=%d", compute, reuse)
	}

	// The patch spans' virtual extents must equal the reports' totals —
	// each charged duration advanced the clock exactly once.
	i := 0
	for _, res := range offRun.Results {
		if res.Span == nil {
			continue
		}
		if res.Report == nil {
			t.Fatalf("span without report for %s", res.Commit)
		}
		if got := res.Span.Dur(); got != res.Report.Total {
			t.Fatalf("patch %s: span extent %v != report total %v", res.Commit, got, res.Report.Total)
		}
		i++
	}
	if i == 0 {
		t.Fatal("no patch spans recorded")
	}

	// Tree and summary renderings are deterministic too.
	if offRun.TraceTree() == "" || offRun.TraceSummary() == "" {
		t.Error("text exporters returned empty output")
	}
}

// A fault-injected run's trace must pin every retry to a backoff span and
// surface the injected faults as span attributes — and stay byte-identical
// across worker counts and cache states, because faults roll from the
// seeded per-commit plan before any cache interaction.
func TestTraceFaultSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	base := traceBase()
	base.Checker.Faults = faultPlanForTest()
	dir := t.TempDir()

	run := func(name string, mutate func(*Params)) ([]byte, *Run) {
		p := base
		mutate(&p)
		r, err := Execute(p)
		if err != nil {
			t.Fatalf("Execute(%s): %v", name, err)
		}
		out := r.ChromeTrace()
		if err := trace.ValidateChrome(out); err != nil {
			t.Fatalf("ValidateChrome(%s): %v", name, err)
		}
		return out, r
	}
	off, offRun := run("off", func(p *Params) { p.NoResultCache = true; p.Workers = 2 })
	cold, _ := run("cold", func(p *Params) { p.CacheDir = dir; p.Workers = 4 })
	warm, _ := run("warm", func(p *Params) { p.CacheDir = dir; p.Workers = 1 })
	if !bytes.Equal(off, cold) || !bytes.Equal(off, warm) {
		t.Error("fault-injected traces differ across cache states")
	}

	fs := offRun.ComputeFaultStats()
	if fs.InjectedFaults == 0 {
		t.Fatal("no faults injected — the test is vacuous")
	}
	var backoffSpans, faultAttrs, wantRetries int
	for _, res := range offRun.Results {
		if res.Report != nil {
			wantRetries += res.Report.Retries
		}
	}
	for _, root := range offRun.Trace.Spans {
		root.Walk(func(s *trace.Span) {
			if s.Kind == trace.KindBackoff {
				backoffSpans++
				if _, ok := s.Attr("attempt"); !ok {
					t.Fatalf("backoff span without attempt: %+v", s.Attrs)
				}
				if _, ok := s.Attr("op"); !ok {
					t.Fatalf("backoff span without op: %+v", s.Attrs)
				}
			}
			if _, ok := s.Attr("fault"); ok {
				faultAttrs++
			}
		})
	}
	if backoffSpans != wantRetries {
		t.Errorf("backoff spans = %d, want %d (one per recorded retry)", backoffSpans, wantRetries)
	}
	if backoffSpans == 0 {
		t.Fatal("seeded fault plan produced no retries — raise the rates")
	}
	if faultAttrs == 0 {
		t.Error("no span carries a fault attribute despite injected faults")
	}
}
