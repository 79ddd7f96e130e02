package eval

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The default JSON report must be byte-identical at any worker count: the
// paper's evaluation is only dependable if parallelizing it cannot change
// its numbers. This covers report contents AND the pipeline section's
// cache counters (computed-exactly-once semantics).
func TestJSONWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	base := Params{TreeSeed: 41, HistorySeed: 42, ModelSeed: 43, TreeScale: 0.15, CommitScale: 0.008}

	run := func(workers, inflight int) []byte {
		p := base
		p.Workers = workers
		p.InFlight = inflight
		r, err := Execute(p)
		if err != nil {
			t.Fatalf("Execute(workers=%d): %v", workers, err)
		}
		if r.Pipeline.Checked == 0 {
			t.Fatalf("workers=%d checked no patches", workers)
		}
		if r.Pipeline.ConfigCache.Misses == 0 || r.Pipeline.Runtime.TokenCache.Misses == 0 {
			t.Fatalf("workers=%d: caches unused: %+v", workers, r.Pipeline)
		}
		js, err := r.JSON(true)
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return js
	}

	one := run(1, 0)
	four := run(4, 8)
	if !bytes.Equal(one, four) {
		t.Error("JSON reports differ between -workers=1 and -workers=4")
	}
	// A tight in-flight bound changes scheduling but not the report.
	tight := run(4, 4)
	if !bytes.Equal(one, tight) {
		t.Error("JSON reports differ under a tight in-flight bound")
	}
}

// With the static presence pre-pass enabled, the report must stay
// worker-count-invariant too — pruning decisions, skip counters and the
// disagreement list are all made from shared memoized state — and the
// static/dynamic cross-check must come back clean on a healthy run.
func TestJSONWorkerInvariantWithStaticPresence(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	base := Params{TreeSeed: 41, HistorySeed: 42, ModelSeed: 43, TreeScale: 0.15, CommitScale: 0.008}
	base.Checker.StaticPresence = true

	run := func(workers, inflight int) ([]byte, *Run) {
		p := base
		p.Workers = workers
		p.InFlight = inflight
		r, err := Execute(p)
		if err != nil {
			t.Fatalf("Execute(workers=%d): %v", workers, err)
		}
		js, err := r.JSON(true)
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return js, r
	}

	one, rOne := run(1, 0)
	four, _ := run(4, 8)
	if !bytes.Equal(one, four) {
		t.Error("static-presence JSON reports differ between -workers=1 and -workers=4")
	}

	ps := rOne.ComputePresenceStats()
	if ps.Disagreements != 0 {
		t.Errorf("static/dynamic cross-check failed %d times", ps.Disagreements)
	}
	var decoded struct {
		Presence *JSONPresence `json:"presence"`
	}
	if err := json.Unmarshal(one, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Presence == nil {
		t.Fatal("presence section missing with StaticPresence enabled")
	}
	if decoded.Presence.Disagreements != 0 {
		t.Errorf("JSON disagreements = %d, want 0", decoded.Presence.Disagreements)
	}

	// And the default (pre-pass off) report must not grow a presence
	// section.
	off, err := Execute(base.withoutStatic())
	if err != nil {
		t.Fatal(err)
	}
	js, err := off.JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	var offDecoded struct {
		Presence *JSONPresence `json:"presence"`
	}
	if err := json.Unmarshal(js, &offDecoded); err != nil {
		t.Fatal(err)
	}
	if offDecoded.Presence != nil {
		t.Error("presence section present without StaticPresence")
	}
}

func (p Params) withoutStatic() Params {
	p.Checker.StaticPresence = false
	p.Workers = 2
	return p
}

// The volatile runtime section is opt-in and absent from the default
// report.
func TestJSONRuntimeSectionOptIn(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	r, err := Execute(Params{TreeSeed: 41, HistorySeed: 42, ModelSeed: 43,
		TreeScale: 0.15, CommitScale: 0.008, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := r.JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	withRT, err := r.JSONWithRuntime(false)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Pipeline struct {
			Patches int                  `json:"patches"`
			Runtime *JSONPipelineRuntime `json:"runtime"`
		} `json:"pipeline"`
	}
	if err := json.Unmarshal(plain, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Pipeline.Runtime != nil {
		t.Error("default JSON carries the volatile runtime section")
	}
	if decoded.Pipeline.Patches == 0 {
		t.Error("pipeline section missing from default JSON")
	}
	if err := json.Unmarshal(withRT, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Pipeline.Runtime == nil {
		t.Fatal("JSONWithRuntime lacks the runtime section")
	}
	if decoded.Pipeline.Runtime.Workers != 2 {
		t.Errorf("runtime workers = %d, want 2", decoded.Pipeline.Runtime.Workers)
	}
	if r.RenderPipeline(true) == r.RenderPipeline(false) {
		t.Error("RenderPipeline(true) should add the runtime lines")
	}
}
