package eval

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"jmake/internal/trace"
)

// BenchWorkerResult is one worker-count pass over the window.
type BenchWorkerResult struct {
	Workers       int     `json:"workers"`
	WallSeconds   float64 `json:"wall_seconds"`
	PatchesPerSec float64 `json:"patches_per_sec"`
	Checked       int     `json:"checked"`
}

// BenchCacheResult is one cache-state pass (cold = empty -cache-dir,
// warm = same dir on the second pass). EffectiveVirtualSeconds is the
// run's honest virtual cost: the full recompute price minus what the
// result cache saved (probes charged in place of compiles).
type BenchCacheResult struct {
	WallSeconds             float64 `json:"wall_seconds"`
	TotalVirtualSeconds     float64 `json:"total_virtual_seconds"`
	SavedVirtualSeconds     float64 `json:"saved_virtual_seconds"`
	EffectiveVirtualSeconds float64 `json:"effective_virtual_seconds"`
	MakeIHits               uint64  `json:"make_i_hits"`
	MakeIMisses             uint64  `json:"make_i_misses"`
	MakeOHits               uint64  `json:"make_o_hits"`
	MakeOMisses             uint64  `json:"make_o_misses"`
	LoadedEntries           int     `json:"loaded_entries"`
}

// BenchSpanStat attributes the window's virtual time — and the result
// cache's effective-seconds savings — to one span kind. Counts and
// virtual seconds come from the warm pass's merged trace (deterministic);
// the saved seconds come from the cache's per-stage ledger, so
// make.i/make.o carry the attribution and the other kinds report zero.
type BenchSpanStat struct {
	Kind                string  `json:"kind"`
	Spans               int     `json:"spans"`
	VirtualSeconds      float64 `json:"virtual_seconds"`
	SavedVirtualSeconds float64 `json:"saved_virtual_seconds"`
}

// BenchHost fingerprints the machine that measured a report's wall-clock
// fields, with the fields of perfbench's "# meta" host record.
type BenchHost struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

// currentHost fingerprints the running machine.
func currentHost() BenchHost {
	return BenchHost{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the host does not expose it).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// BenchReport is the output of RunBenchmarks, written by cmd/jmake-bench
// to BENCH_pipeline.json. Host identifies the machine behind the
// wall-clock fields (wall_seconds, patches_per_sec); every other field is
// deterministic virtual time or a count.
type BenchReport struct {
	Host           BenchHost           `json:"host"`
	TreeScale      float64             `json:"tree_scale"`
	CommitScale    float64             `json:"commit_scale"`
	WindowCommits  int                 `json:"window_commits"`
	WorkerSweep    []BenchWorkerResult `json:"worker_sweep"`
	Cold           BenchCacheResult    `json:"cache_cold"`
	Warm           BenchCacheResult    `json:"cache_warm"`
	WarmSavingsPct float64             `json:"warm_savings_pct"`
	Spans          []BenchSpanStat     `json:"spans"`
	// Reactive is the commit-stream follower benchmark (cmd/jmake-bench
	// -reactive); nil when that mode was not run.
	Reactive *ReactiveReport `json:"reactive,omitempty"`
}

// MarshalIndent renders the report as BENCH_pipeline.json content.
func (b *BenchReport) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// RunBenchmarks prepares the evaluation substrate once and then measures
// (a) window throughput at 1/2/4/8 workers with the default in-memory
// result cache, and (b) a cold-then-warm pair of runs against cacheDir,
// which must start empty so the first pass populates the persistent tier
// and the second warm-starts from it. The warm-vs-cold comparison is in
// effective virtual seconds — the deterministic cost-model currency the
// paper reports — so it is machine-independent.
func RunBenchmarks(p Params, cacheDir string) (*BenchReport, error) {
	if cacheDir == "" {
		return nil, fmt.Errorf("eval: RunBenchmarks needs a cache dir")
	}
	run, ids, err := prepare(p)
	if err != nil {
		return nil, err
	}
	rep := &BenchReport{
		Host:          currentHost(),
		TreeScale:     run.Params.TreeScale,
		CommitScale:   run.Params.CommitScale,
		WindowCommits: len(ids),
	}

	if rep.WorkerSweep, err = sweep(run, ids, []int{1, 2, 4, 8}); err != nil {
		return nil, err
	}

	cachePass := func(traced bool) (BenchCacheResult, *Run, error) {
		shell := *run
		shell.Params.CacheDir = cacheDir
		shell.Params.Trace = traced
		if err := shell.checkWindow(ids); err != nil {
			return BenchCacheResult{}, nil, err
		}
		pm := shell.Pipeline
		res := BenchCacheResult{
			WallSeconds:             pm.Runtime.WallSeconds,
			TotalVirtualSeconds:     pm.VirtualSeconds.TotalSeconds,
			EffectiveVirtualSeconds: pm.VirtualSeconds.TotalSeconds,
		}
		if rc := pm.Runtime.ResultCache; rc != nil {
			res.SavedVirtualSeconds = rc.SavedVirtualSecs
			res.EffectiveVirtualSeconds = rc.EffectiveSecs
			res.MakeIHits, res.MakeIMisses = rc.MakeI.Hits, rc.MakeI.Misses
			res.MakeOHits, res.MakeOMisses = rc.MakeO.Hits, rc.MakeO.Misses
			res.LoadedEntries = rc.LoadedEntries
		}
		return res, &shell, nil
	}
	if rep.Cold, _, err = cachePass(false); err != nil {
		return nil, fmt.Errorf("eval: bench cold pass: %w", err)
	}
	var warmRun *Run
	if rep.Warm, warmRun, err = cachePass(true); err != nil {
		return nil, fmt.Errorf("eval: bench warm pass: %w", err)
	}
	if rep.Cold.EffectiveVirtualSeconds > 0 {
		rep.WarmSavingsPct = 100 * (rep.Cold.EffectiveVirtualSeconds - rep.Warm.EffectiveVirtualSeconds) /
			rep.Cold.EffectiveVirtualSeconds
	}
	rep.Spans = benchSpans(warmRun)
	return rep, nil
}

// RunWorkerSweep prepares the evaluation substrate once and measures
// window throughput at each requested worker count, nothing else. It is
// the cheap core of RunBenchmarks, exposed for scaling smoke checks
// (make bench-scaling) that only need the throughput ratio.
func RunWorkerSweep(p Params, workers []int) ([]BenchWorkerResult, error) {
	run, ids, err := prepare(p)
	if err != nil {
		return nil, err
	}
	return sweep(run, ids, workers)
}

// sweep runs the window once per worker count over a shared substrate.
// Each pass gets a fresh Run shell (fresh Session, fresh caches) so no
// pass warms the next one's caches and the comparison stays honest.
func sweep(run *Run, ids []string, workers []int) ([]BenchWorkerResult, error) {
	var out []BenchWorkerResult
	for _, w := range workers {
		shell := *run
		shell.Params.Workers = w
		if err := shell.checkWindow(ids); err != nil {
			return nil, fmt.Errorf("eval: bench workers=%d: %w", w, err)
		}
		out = append(out, BenchWorkerResult{
			Workers:       w,
			WallSeconds:   shell.Pipeline.Runtime.WallSeconds,
			PatchesPerSec: shell.Pipeline.Runtime.PatchesPerSec,
			Checked:       shell.Pipeline.Checked,
		})
	}
	return out, nil
}

// benchSpans aggregates the warm pass's merged trace by span kind and
// attributes the result cache's per-stage effective savings to the
// make.i / make.o kinds. The trace itself is deterministic; only the
// saved-seconds columns depend on cache warmth (they are the point).
func benchSpans(run *Run) []BenchSpanStat {
	if run == nil || run.Trace == nil {
		return nil
	}
	counts := make(map[string]int)
	virtual := make(map[string]time.Duration)
	for _, root := range run.Trace.Spans {
		root.Walk(func(s *trace.Span) {
			counts[s.Kind]++
			virtual[s.Kind] += s.Dur()
		})
	}
	saved := map[string]float64{}
	if rc := run.Pipeline.Runtime.ResultCache; rc != nil {
		saved[trace.KindMakeI], saved[trace.KindMakeO] = rc.SavedMakeISecs, rc.SavedMakeOSecs
	}
	var out []BenchSpanStat
	for _, kind := range []string{
		trace.KindConfig, trace.KindMakeI, trace.KindMakeO, trace.KindBackoff,
	} {
		out = append(out, BenchSpanStat{
			Kind:                kind,
			Spans:               counts[kind],
			VirtualSeconds:      virtual[kind].Seconds(),
			SavedVirtualSeconds: saved[kind],
		})
	}
	return out
}
