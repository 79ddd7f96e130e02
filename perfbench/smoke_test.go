package main

import (
	"io"
	"testing"
)

// smokeParams shrinks every workload to a few seconds in total.
func smokeParams() params {
	return params{
		treeScale:      0.15,
		commitScale:    0.01,
		windowCommits:  30,
		workers:        1,
		verifyWorkers:  2,
		setupRepeats:   1,
		sampleChecks:   3,
		requests:       20,
		nominalQPS:     40,
		followSteps:    10,
		auditTrees:     1,
		auditTreeScale: 0.15,
		auditInject:    4,
	}
}

// TestSmokeEveryWorkload runs each workload untraced and traced at smoke
// size and checks that every metric BENCHMARK.json names appears with
// its unit, and that every output check passed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs generate workspaces")
	}
	b := loadBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 5, seconds: 0.5, traced: traced, p: smokeParams(), out: t.TempDir(),
				stdout: io.Discard, stderr: io.Discard}
			if traced {
				e.log = newSpanLog()
			}
			res, meta, err := execute(e, w.Name, workloads[w.Name])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, meta["notes"])
			}
			defs := b.PerLayer
			if !traced {
				defs = nil
				for _, m := range b.EndToEnd {
					defs = append(defs, m.metricDef)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, d.Name, m, d.Unit)
				}
			}
			if h, ok := meta["host"].(hostInfo); !ok || h.NumCPU < 1 || h.GoVersion == "" {
				t.Errorf("%s: result lacks its host fingerprint: %v", w.Name, meta["host"])
			}
		}
	}
}

func TestCountDrift(t *testing.T) {
	old := map[string]int64{"a": 1, "b": 2}
	if d := countDrift(old, map[string]int64{"a": 1, "b": 2}); len(d) != 0 {
		t.Errorf("identical counts drifted: %v", d)
	}
	d := countDrift(old, map[string]int64{"a": 1, "b": 3, "c": 4})
	if len(d) != 2 {
		t.Errorf("drift = %v, want b changed and c new", d)
	}
	if d := countDrift(old, map[string]int64{"a": 1}); len(d) != 1 {
		t.Errorf("drift = %v, want b missing", d)
	}
}
