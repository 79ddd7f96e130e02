package eval

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"jmake/internal/faultinject"
)

// faultPlanForTest injects enough transient faults to exercise the
// fault-vs-cache ordering without drowning the run in retries.
func faultPlanForTest() faultinject.Plan {
	return faultinject.Plan{Seed: 9, PreprocessRate: 0.05, TruncateRate: 0.05}
}

// The tentpole's correctness crux: the default JSON report must be
// byte-identical with the result cache off, cold, and warm (persistent
// tier), at any worker count. Caching may only change real compute.
func TestJSONCacheStateInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	base := Params{TreeSeed: 41, HistorySeed: 42, ModelSeed: 43, TreeScale: 0.15, CommitScale: 0.008}
	dir := t.TempDir()

	run := func(name string, mutate func(*Params)) ([]byte, *Run) {
		p := base
		mutate(&p)
		r, err := Execute(p)
		if err != nil {
			t.Fatalf("Execute(%s): %v", name, err)
		}
		js, err := r.JSON(true)
		if err != nil {
			t.Fatalf("JSON(%s): %v", name, err)
		}
		return js, r
	}

	off, _ := run("off", func(p *Params) { p.NoResultCache = true; p.Workers = 1 })
	inmem, _ := run("inmem", func(p *Params) { p.Workers = 2 })
	cold, coldRun := run("cold", func(p *Params) { p.CacheDir = dir; p.Workers = 4 })
	warm, warmRun := run("warm", func(p *Params) { p.CacheDir = dir; p.Workers = 8 })
	warm1, _ := run("warm1", func(p *Params) { p.CacheDir = dir; p.Workers = 1 })

	for name, js := range map[string][]byte{"inmem": inmem, "cold": cold, "warm": warm, "warm1": warm1} {
		if !bytes.Equal(off, js) {
			t.Errorf("JSON(%s) differs from cache-off baseline", name)
		}
	}

	// The cache must really have persisted and warm-started.
	if _, err := os.Stat(filepath.Join(dir, "jmake-ccache.json")); err != nil {
		t.Fatalf("persistent tier not written: %v", err)
	}
	if coldRun.Pipeline.Runtime.ResultCache.LoadedEntries != 0 {
		t.Errorf("cold run loaded %d entries", coldRun.Pipeline.Runtime.ResultCache.LoadedEntries)
	}
	wrc := warmRun.Pipeline.Runtime.ResultCache
	if wrc.LoadedEntries == 0 {
		t.Fatal("warm run loaded nothing from the persistent tier")
	}
	if wrc.MakeI.Hits == 0 || wrc.MakeO.Hits == 0 {
		t.Fatalf("warm run produced no hits: %+v", wrc)
	}
	// The whole point: a warm start saves a large fraction of the
	// effective virtual time (the acceptance bar is 30%).
	coldEff := coldRun.Pipeline.Runtime.ResultCache.EffectiveSecs
	warmEff := wrc.EffectiveSecs
	if coldEff <= 0 || warmEff >= 0.7*coldEff {
		t.Errorf("warm effective %.1fs vs cold %.1fs: want >=30%% savings", warmEff, coldEff)
	}
}

// Fault injection and result caching must compose: faults are rolled
// before any probe and never stored, so a faulty run's report (including
// the fault/retry bookkeeping) is identical at every cache state.
func TestJSONCacheInvariantUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	base := Params{TreeSeed: 41, HistorySeed: 42, ModelSeed: 43, TreeScale: 0.15, CommitScale: 0.008}
	base.Checker.Faults = faultPlanForTest()
	dir := t.TempDir()

	run := func(name string, mutate func(*Params)) []byte {
		p := base
		mutate(&p)
		r, err := Execute(p)
		if err != nil {
			t.Fatalf("Execute(%s): %v", name, err)
		}
		if r.ComputeFaultStats().InjectedFaults == 0 {
			t.Fatalf("%s: no faults injected — the test is vacuous", name)
		}
		js, err := r.JSON(false)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	off := run("off", func(p *Params) { p.NoResultCache = true; p.Workers = 2 })
	cold := run("cold", func(p *Params) { p.CacheDir = dir; p.Workers = 4 })
	warm := run("warm", func(p *Params) { p.CacheDir = dir; p.Workers = 2 })
	if !bytes.Equal(off, cold) || !bytes.Equal(off, warm) {
		t.Error("fault-injected reports differ across cache states")
	}
}

// A corrupted persistent tier must degrade to a cold start with identical
// output, never an error.
func TestCorruptPersistentTierIsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	base := Params{TreeSeed: 41, HistorySeed: 42, ModelSeed: 43, TreeScale: 0.15, CommitScale: 0.008, Workers: 2}

	p := base
	p.CacheDir = t.TempDir()
	r1, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	js1, err := r1.JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	// Trash the cache file in place.
	path := filepath.Join(p.CacheDir, "jmake-ccache.json")
	if err := os.WriteFile(path, []byte("\x00garbage\xff"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(p)
	if err != nil {
		t.Fatalf("corrupt cache must not fail the run: %v", err)
	}
	js2, err := r2.JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Error("corrupt cache changed the report")
	}
	if r2.Pipeline.Runtime.ResultCache.LoadedEntries != 0 {
		t.Errorf("corrupt cache loaded %d entries", r2.Pipeline.Runtime.ResultCache.LoadedEntries)
	}
	// And the run rewrote a valid cache file behind itself.
	r3, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Pipeline.Runtime.ResultCache.LoadedEntries == 0 {
		t.Error("cache file not rewritten after corruption")
	}
}
