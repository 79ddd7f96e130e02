package main

import (
	"runtime"

	"jmake/internal/cliopts"
)

// params sizes every workload. defaultParams is what the benchmark runs;
// tests shrink it to smoke size.
type params struct {
	// The generated workspace window, service and follow run against.
	treeScale, commitScale float64
	// windowCommits is how many window commits one window pass checks.
	windowCommits int
	// workers is the timed sections' working goroutines and client
	// connections: one, so a second CPU is left to the runtime's GC and to
	// load from outside the process, which would otherwise land on the
	// operations being timed.
	workers int
	// verifyWorkers runs the untimed output checks: 2, or the host's CPU
	// count when smaller.
	verifyWorkers int
	// setupRepeats is how many times set-up runs per invocation (its
	// median is setup_s).
	setupRepeats int
	// sampleChecks is how many window/service reports are byte-compared
	// against a fresh check.
	sampleChecks int

	// service: the Zipf requests one timed pass sends, and the open-loop
	// rate the traced run sends them at.
	requests   int
	nominalQPS float64

	// follow: commits one pass steps through.
	followSteps int

	// audit: trees audited round-robin, their scale, injected mismatches.
	auditTrees     int
	auditTreeScale float64
	auditInject    int
}

func defaultParams() params {
	v := 2
	if n := runtime.NumCPU(); n < v {
		v = n
	}
	return params{
		treeScale:      1.0,
		commitScale:    0.3,
		windowCommits:  1200,
		workers:        1,
		verifyWorkers:  v,
		setupRepeats:   3,
		sampleChecks:   24,
		requests:       1200,
		nominalQPS:     120,
		followSteps:    400,
		auditTrees:     30,
		auditTreeScale: 0.25,
		auditInject:    8,
	}
}

// workspace is the generated tree and history for a seed.
func (p params) workspace(seed int64) cliopts.Workspace {
	return cliopts.Workspace{TreeSeed: seed, HistorySeed: seed + 1, TreeScale: p.treeScale, CommitScale: p.commitScale}
}

// describe records the scales and rates a workload ran at.
func (p params) describe(workload string) map[string]any {
	d := map[string]any{"workers": p.workers, "setup_repeats": p.setupRepeats}
	switch workload {
	case "window":
		d["tree_scale"], d["commit_scale"], d["window_commits"] = p.treeScale, p.commitScale, p.windowCommits
		d["sample_checks"] = p.sampleChecks
		d["commits_per_pass"] = p.windowCommits
	case "service":
		d["tree_scale"], d["commit_scale"] = p.treeScale, p.commitScale
		d["zipf_s"], d["zipf_v"], d["requests_per_pass"] = zipfS, zipfV, p.requests
		d["traced_open_loop_qps"] = p.nominalQPS
		d["connections"], d["max_in_flight"] = p.workers, p.workers
		d["sample_checks"] = p.sampleChecks
	case "follow":
		d["tree_scale"], d["commit_scale"] = p.treeScale, p.commitScale
		d["steps_per_pass"] = p.followSteps
		d["verify_workers"] = p.verifyWorkers
	case "audit":
		d["trees"], d["tree_scale"], d["injected_per_tree"] = p.auditTrees, p.auditTreeScale, p.auditInject
	}
	return d
}
