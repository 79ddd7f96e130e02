package incr_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"jmake/internal/cliopts"
	"jmake/internal/incr"
)

// residentSteps is how many window commits BenchmarkResidentFollow
// follows: enough for the state a follower keeps per commit to dominate
// what it seeds with.
const residentSteps = 1000

// BenchmarkResidentFollow steps one follower through the first 1,000
// window commits of a generated workspace (tree scale 1.0, commit scale
// 0.3, the CLI's default seeds) with default checker options, as
// `jmake -follow` does. It reports what the follower keeps resident and
// what the collector costs while it runs:
//   - live-MB, the live heap after a forced GC once the stream is done,
//     the workspace included;
//   - gc-cpu-share, the runtime's estimate of GC CPU time over all busy
//     CPU time during the stream.
func BenchmarkResidentFollow(b *testing.B) {
	built, err := cliopts.Workspace{TreeSeed: 1, HistorySeed: 2, TreeScale: 1.0, CommitScale: 0.3}.Build()
	if err != nil {
		b.Fatal(err)
	}
	ids := built.WindowIDs
	if len(ids) < residentSteps {
		b.Fatalf("window has %d commits, want at least %d", len(ids), residentSteps)
	}
	ids = ids[:residentSteps]
	base, err := built.Hist.Repo.Parent(ids[0])
	if err != nil {
		b.Fatal(err)
	}
	var liveMB, gcShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := incr.NewFollower(built.Hist.Repo, base, incr.Options{})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		before := readCPU()
		b.StartTimer()
		err = f.Run(ids, func(r incr.StepResult) bool {
			if r.Err != nil {
				b.Fatalf("commit %s: %v", r.Commit, r.Err)
			}
			return true
		})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		after := readCPU()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(f)
		liveMB += float64(ms.HeapAlloc) / (1 << 20)
		if busy := after.busy - before.busy; busy > 0 {
			gcShare += (after.gc - before.gc) / busy
		}
	}
	b.ReportMetric(liveMB/float64(b.N), "live-MB")
	b.ReportMetric(gcShare/float64(b.N), "gc-cpu-share")
}

// cpuClasses holds the runtime's cumulative CPU estimates, which it
// refreshes at each GC.
type cpuClasses struct{ gc, busy float64 }

func readCPU() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}
