// Command perfbench is jmake's measured-time benchmark. It builds each
// workload's inputs from a seed, times calls into the program's public
// functions in CPU and wall time, checks every output, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload window --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run is repeated traced and the result
// carries the per-layer metrics: spans the benchmark records around
// calls into each module, counters the program exports, replays of the
// calls each check's virtual span tree records (replay.go), and the CPU
// profile's per-module shares (profile.go).
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	window   one fresh session checks the v4.3→v4.4 window (jmake-eval)
//	service  in-process jmaked answering repeated /check requests
//	follow   an incremental follower steps through consecutive commits
//	audit    whole-tree configuration-mismatch audits with ground truth
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one metric with its unit and direction. The two lists
// below are exactly BENCHMARK.json's end_to_end and per_layer lists (a
// test holds them equal).
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"cpu_p50_ms", "ms", "lower"},
	{"cpu_p99_ms", "ms", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// profileLayers are the modules the CPU profile is credited to, plus the
// runtime (no module on the stack), helpers (other jmake/internal
// packages) and other (no jmake frame at all).
var profileLayers = []string{"vcs", "fstree", "core", "kconfig", "kbuild", "cpp", "cc", "ccache",
	"sched", "incr", "daemon", "trace", "presence", "audit", "runtime", "helpers", "other"}

// profileLayerOf maps a module to the layer its CPU counts under: the
// diff engine is vcs's, the request log is the daemon's.
func profileLayerOf(module string) string {
	switch module {
	case "textdiff":
		return "vcs"
	case "obs":
		return "daemon"
	case "runtime", "other":
		return module
	}
	for _, l := range profileLayers {
		if l == module {
			return l
		}
	}
	return "helpers"
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"vcs.checkout_ms", "ms", "lower"},
		{"vcs.diff_ms", "ms", "lower"},
		{"vcs.calls", "count/op", "lower"},
		{"fstree.clone_ms", "ms", "lower"},
		{"fstree.files", "count", "lower"},
		{"core.check_ms", "ms", "lower"},
		{"core.self_ms", "ms", "lower"},
		{"core.files_per_patch", "count/op", "lower"},
		{"core.mutations_per_patch", "count/op", "lower"},
		{"core.certified_share", "share", "higher"},
		{"kconfig.config_ms", "ms", "lower"},
		{"kconfig.config_hit_ratio", "ratio", "higher"},
		{"kconfig.parse_ms", "ms", "lower"},
		{"kbuild.reachable_ms", "ms", "lower"},
		{"kbuild.gate_ms", "ms", "lower"},
		{"kbuild.make_i_calls", "count/op", "lower"},
		{"kbuild.make_o_calls", "count/op", "lower"},
		{"cpp.preprocess_ms", "ms", "lower"},
		{"cpp.lines_per_s", "lines/s", "higher"},
		{"cpp.token_hit_ratio", "ratio", "higher"},
		{"cc.compile_ms", "ms", "lower"},
		{"cc.bytes_per_s", "B/s", "higher"},
		{"ccache.i_hit_ratio", "ratio", "higher"},
		{"ccache.o_hit_ratio", "ratio", "higher"},
		{"ccache.probe_ms", "ms", "lower"},
		{"ccache.dependents_ms", "ms", "lower"},
		{"ccache.stored_mb", "MB", "lower"},
		{"ccache.served_mb", "MB", "higher"},
		{"sched.busy_share", "share", "higher"},
		{"incr.structural_share", "share", "lower"},
		{"incr.invalidated_tus", "count/op", "lower"},
		{"incr.index_ms", "ms", "lower"},
		{"daemon.server_ms", "ms", "lower"},
		{"daemon.queue_wait_ms", "ms", "lower"},
		{"daemon.transport_ms", "ms", "lower"},
		{"daemon.marshal_ms", "ms", "lower"},
		{"daemon.shed", "count", "lower"},
		{"daemon.timeouts", "count", "lower"},
		{"trace.merge_ms", "ms", "lower"},
		{"trace.spans_per_patch", "count/op", "lower"},
		{"trace.overhead_share", "share", "lower"},
		{"presence.analyze_ms", "ms", "lower"},
		{"audit.files", "count/op", "lower"},
		{"audit.findings", "count/op", "lower"},
		{"loadgen.late_p99_ms", "ms", "lower"},
		{"runtime.gc_cpu_share", "share", "lower"},
		{"runtime.cpu_ms_per_op", "ms", "lower"},
		{"runtime.alloc_mb_per_op", "MB", "lower"},
	}
	for _, l := range profileLayers {
		defs = append(defs, metricDef{l + ".profile_share", "share", "lower"})
	}
	return defs
}()

// outcome is what a workload hands back to run.
type outcome struct {
	attempted int
	failures  []string
	// metrics are by name; units come from the definition lists.
	metrics map[string]float64
	// notes are printed beside the metrics: which percentile a tail figure
	// really is, sample counts, the cache state replays used.
	notes map[string]any
	// props are the workload's measured input properties (run metadata).
	props map[string]any
	// counts are deterministic program counts, compared across runs at
	// the same seed.
	counts map[string]int64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]any{}, props: map[string]any{}, counts: map[string]int64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// env is one invocation's settings.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	p       params
	out     string // build/record directory inside the checkout
	log     *spanLog
	// stdout takes the human-readable report; stderr takes diagnostics.
	stdout, stderr io.Writer
}

func (e *env) budget() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"window":  runWindow,
	"service": runService,
	"follow":  runFollow,
	"audit":   runAudit,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "window|service|follow|audit")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 15, "measured time per run")
	traced := fs.Int("trace", 0, "1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload window|service|follow|audit, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	e := &env{seed: *seed, seconds: *seconds, traced: *traced == 1, p: defaultParams(), out: out, stdout: stdout, stderr: stderr}
	if e.traced {
		e.log = newSpanLog()
	}
	res, meta, err := execute(e, *name, wl)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "# meta %s\n", metaLine)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and assembles its result and metadata.
func execute(e *env, name string, wl workloadFunc) (*result, map[string]any, error) {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, nil, err
	}
	o, err := wl(e)
	if err != nil {
		return nil, nil, err
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	res := &result{Attempted: o.attempted, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return nil, nil, fmt.Errorf("workload did not measure %s", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return nil, nil, errors.New("no operation completed in the measured time")
	}
	host := currentHost(".")
	drift, err := checkCounts(e, name, host.SourceSHA256, o.counts)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range drift {
		o.fail("count drift at seed %d: %s", e.seed, d)
	}
	res.Failed = len(o.failures)
	if res.Failed > res.Attempted {
		res.Attempted = res.Failed
	}
	res.Correct = res.Failed == 0

	printReport(e, name, o, res)
	if e.traced {
		path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, e.seed))
		if err := e.log.writeJSONL(path); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(e.stderr, "perfbench: spans written to %s\n", path)
	}
	meta := map[string]any{
		"workload":     name,
		"seed":         e.seed,
		"seconds":      e.seconds,
		"trace":        e.traced,
		"host":         host,
		"params":       e.p.describe(name),
		"inputs":       o.props,
		"counts":       o.counts,
		"notes":        o.notes,
		"failed_share": ratio(float64(res.Failed), float64(res.Attempted)),
	}
	return res, meta, nil
}

// printReport writes the human-readable block: every metric with its
// unit, notes, failures, and for traced runs each layer's profile share
// beside its timed spans.
func printReport(e *env, name string, o *outcome, res *result) {
	w := e.stdout
	fmt.Fprintf(w, "== perfbench %s seed=%d trace=%v attempted=%d failed=%d failed_share=%g\n",
		name, e.seed, e.traced, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if len(o.notes) > 0 {
		b, _ := json.Marshal(o.notes)
		fmt.Fprintf(w, "  notes: %s\n", b)
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
	if e.traced {
		fmt.Fprintf(w, "  %-10s %9s   %s\n", "layer", "profile", "spans (mean ms per call, calls)")
		st := e.log.stats()
		for _, l := range profileLayers {
			var parts []string
			for _, sn := range sortedKeys(st) {
				if strings.HasPrefix(sn, l+".") {
					parts = append(parts, fmt.Sprintf("%s=%.4f×%d", strings.TrimPrefix(sn, l+"."), st[sn].meanMS(), st[sn].Count))
				}
			}
			fmt.Fprintf(w, "  %-10s %8.1f%%   %s\n", l, 100*o.metrics[l+".profile_share"], strings.Join(parts, " "))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkCounts compares the run's deterministic counts with the ones an
// earlier run of the same sources at the same seed (and trace mode)
// recorded in the checkout, recording them when none exist yet. Any
// difference is drift: the program's deterministic work changed between
// two identical runs.
func checkCounts(e *env, name, digest string, counts map[string]int64) ([]string, error) {
	if len(counts) == 0 {
		return nil, nil
	}
	dir := filepath.Join(e.out, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if len(digest) > 16 {
		digest = digest[:16]
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v-%s.json", name, e.seed, e.traced, digest))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b, _ := json.MarshalIndent(counts, "", "  ")
		return nil, os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return nil, err
	}
	var old map[string]int64
	if err := json.Unmarshal(prev, &old); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return countDrift(old, counts), nil
}

// countDrift lists every count that differs between two runs.
func countDrift(old, cur map[string]int64) []string {
	var drift []string
	for _, k := range sortedKeys(cur) {
		if v, ok := old[k]; !ok || v != cur[k] {
			drift = append(drift, fmt.Sprintf("%s: %d then %d", k, old[k], cur[k]))
		}
	}
	for _, k := range sortedKeys(old) {
		if _, ok := cur[k]; !ok {
			drift = append(drift, fmt.Sprintf("%s: %d then missing", k, old[k]))
		}
	}
	return drift
}

// timeSetup runs setup n times and returns the median duration in
// seconds with the last result; earlier results are dropped before the
// next repetition so each starts from the same heap.
func timeSetup[T any](n int, setup func() (T, error)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		var zero T
		last = zero
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// minPasses is the fewest passes a run makes, whatever its budget.
const minPasses = 3

// passRecord is one pass over a workload's operation list: its wall time,
// the process's CPU time over it, and each operation's wall and CPU time
// in milliseconds, in operation order.
type passRecord struct {
	wall, cpu     time.Duration
	opWall, opCPU []float64
}

func (r *passRecord) add(wall, cpu time.Duration) {
	r.opWall = append(r.opWall, msOf(wall))
	r.opCPU = append(r.opCPU, msOf(cpu))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// passFigures sets the end-to-end figures of a workload that repeats one
// operation list in passes. The bounded figures are CPU time: on a shared
// host the hypervisor gives the CPU to other machines for minutes at a
// time (steal), which moves wall-clock figures by a third between runs of
// the same code, and the kernel leaves that time out of CPU time. The
// wall-clock figures go into the notes beside them. cpu_ms_per_op is the
// median pass's process CPU per operation; the percentiles are taken over
// each operation's median across passes, so a burst that slows an
// operation in one pass does not reach them.
func passFigures(o *outcome, passes []passRecord) {
	var perOp, rates []float64
	opWall := make([][]float64, len(passes))
	opCPU := make([][]float64, len(passes))
	for i, p := range passes {
		n := float64(len(p.opCPU))
		perOp = append(perOp, ratio(msOf(p.cpu), n))
		rates = append(rates, ratio(n, p.wall.Seconds()))
		opWall[i], opCPU[i] = p.opWall, p.opCPU
	}
	cpu, wall := opMedians(opCPU), opMedians(opWall)
	c99, w99 := percentile(cpu, 0.99), percentile(wall, 0.99)
	o.metrics["cpu_ms_per_op"] = median(perOp)
	o.metrics["cpu_p50_ms"], o.metrics["cpu_p99_ms"] = percentile(cpu, 0.5).Value, c99.Value
	o.notes["cpu_p99"] = c99
	o.notes["passes"] = len(passes)
	o.notes["pass_cpu_ms_per_op"] = perOp
	o.notes["wall_throughput_per_s"] = median(rates)
	o.notes["wall_latency_p50_ms"] = percentile(wall, 0.5).Value
	o.notes["wall_latency_p99"] = w99
	o.notes["wall_pass_rates"] = rates
}

// profiled runs fn under the CPU profiler and returns the module shares.
func profiled(fn func()) (map[string]float64, int, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	fn()
	pprof.StopCPUProfile()
	return profileShares(buf.Bytes())
}

// setProfileShares folds module shares into the layer metrics.
func setProfileShares(o *outcome, shares map[string]float64, samples int) {
	for _, l := range profileLayers {
		o.metrics[l+".profile_share"] = 0
	}
	for m, s := range shares {
		o.metrics[profileLayerOf(m)+".profile_share"] += s
	}
	o.notes["profile_samples"] = samples
}

// zeroLayers sets every per-layer metric a workload's path does not reach
// to 0, so each traced result names every layer.
func zeroLayers(o *outcome) {
	for _, d := range perLayer {
		if _, ok := o.metrics[d.Name]; !ok {
			o.metrics[d.Name] = 0
		}
	}
}
