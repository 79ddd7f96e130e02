package eval

import (
	"fmt"
	"testing"
)

// BenchmarkCheckWindow measures patch-window throughput at several worker
// counts (run with `make bench-workers`). The substrate (tree, history,
// janitor study) is prepared once outside the timer; every measured pass
// runs the full window through a FRESH Session so cache warmth cannot
// favor later worker counts. Speedup tracks available cores — on a
// single-core machine the worker counts tie, which is itself evidence the
// pool adds no contention overhead.
// BenchmarkStaticPruning compares the window's virtual build time with and
// without the static presence-condition pre-pass. Wall clock measures the
// analysis overhead; the reported virtual_seconds metric is what the paper
// cares about — compiler invocations a kernel janitor would actually wait
// for, which the pruning removes whenever a patch only touches dead
// regions.
func BenchmarkStaticPruning(b *testing.B) {
	run, ids, err := prepare(Params{
		TreeSeed: 51, HistorySeed: 52, ModelSeed: 53,
		TreeScale: 0.25, CommitScale: 0.02,
	})
	if err != nil {
		b.Fatalf("prepare: %v", err)
	}
	for _, pruned := range []bool{false, true} {
		name := "unpruned"
		if pruned {
			name = "pruned"
		}
		b.Run(name, func(b *testing.B) {
			var last JSONPipeline
			for i := 0; i < b.N; i++ {
				shell := *run
				shell.Params.Checker.StaticPresence = pruned
				if err := shell.checkWindow(ids); err != nil {
					b.Fatalf("checkWindow: %v", err)
				}
				last = shell.Pipeline
			}
			b.ReportMetric(last.VirtualSeconds.TotalSeconds, "virtual_sec")
			b.ReportMetric(float64(last.StaticSkippedI+last.StaticSkippedO), "skipped")
			b.ReportMetric(float64(last.Checked), "checked")
		})
	}
}

func BenchmarkCheckWindow(b *testing.B) {
	run, ids, err := prepare(Params{
		TreeSeed: 51, HistorySeed: 52, ModelSeed: 53,
		TreeScale: 0.25, CommitScale: 0.02,
	})
	if err != nil {
		b.Fatalf("prepare: %v", err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var last JSONPipeline
			for i := 0; i < b.N; i++ {
				shell := *run
				shell.Params.Workers = w
				if err := shell.checkWindow(ids); err != nil {
					b.Fatalf("checkWindow: %v", err)
				}
				last = shell.Pipeline
			}
			b.ReportMetric(last.Runtime.PatchesPerSec, "patches/sec")
			b.ReportMetric(float64(last.Checked), "checked")
		})
	}
}
