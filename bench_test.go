// Benchmarks regenerating every table and figure of the paper's §V
// evaluation, plus micro-benchmarks of the substrate. The table/figure
// benchmarks share one reduced-scale evaluation run (the full-scale
// numbers come from cmd/jmake-eval); each reports its headline quantities
// as custom metrics so `go test -bench` output doubles as a results sheet.
package jmake_test

import (
	"strings"
	"sync"
	"testing"

	"jmake"
	"jmake/internal/cc"
	"jmake/internal/core"
	"jmake/internal/cpp"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/kernelgen"
	"jmake/internal/textdiff"
)

var (
	benchOnce sync.Once
	benchRun  *jmake.Run
	benchErr  error
)

// sharedRun executes the reduced evaluation once for all benchmarks.
func sharedRun(b *testing.B) *jmake.Run {
	benchOnce.Do(func() {
		benchRun, benchErr = jmake.Evaluate(jmake.EvalParams{
			TreeSeed:    101,
			HistorySeed: 102,
			ModelSeed:   103,
			TreeScale:   0.5,
			CommitScale: 0.08,
		})
	})
	if benchErr != nil {
		b.Fatalf("evaluation failed: %v", benchErr)
	}
	return benchRun
}

func BenchmarkTableI_Thresholds(b *testing.B) {
	var th jmake.JanitorThresholds
	for i := 0; i < b.N; i++ {
		th = jmake.DefaultJanitorThresholds()
	}
	b.ReportMetric(float64(th.MinPatches), "min-patches")
	b.ReportMetric(float64(th.MinSubsystems), "min-subsystems")
	b.ReportMetric(float64(th.MinLists), "min-lists")
}

func BenchmarkTableII_Janitors(b *testing.B) {
	r := sharedRun(b)
	var n int
	for i := 0; i < b.N; i++ {
		n = len(r.TableII())
	}
	_ = n
	b.ReportMetric(float64(len(r.Janitors)), "janitors")
}

func BenchmarkTableIII_PatchMix(b *testing.B) {
	r := sharedRun(b)
	var t3 interface{ Render() string }
	for i := 0; i < b.N; i++ {
		t3 = r.ComputeTableIII()
	}
	tab := r.ComputeTableIII()
	_ = t3
	b.ReportMetric(pctm(tab.All.COnly, tab.All.Total), "c-only-%")
	b.ReportMetric(pctm(tab.All.HOnly, tab.All.Total), "h-only-%")
	b.ReportMetric(pctm(tab.All.Both, tab.All.Total), "both-%")
}

func BenchmarkTableIV_EscapeReasons(b *testing.B) {
	r := sharedRun(b)
	for i := 0; i < b.N; i++ {
		_ = r.ComputeTableIV(false)
	}
	tab := r.ComputeTableIV(false)
	b.ReportMetric(float64(tab.AffectedFiles), "affected-files")
	b.ReportMetric(float64(len(tab.Counts)), "categories")
}

func BenchmarkFig4a_ConfigCreationCDF(b *testing.B) {
	r := sharedRun(b)
	d := r.ComputeDurations()
	for i := 0; i < b.N; i++ {
		_ = d.Fig4a()
	}
	cdf := d.Fig4a()
	b.ReportMetric(cdf.Max(), "max-s")
	b.ReportMetric(100*cdf.FractionAtOrBelow(5), "pct<=5s")
}

func BenchmarkFig4b_MakeICDF(b *testing.B) {
	r := sharedRun(b)
	d := r.ComputeDurations()
	for i := 0; i < b.N; i++ {
		_ = d.Fig4b()
	}
	cdf := d.Fig4b()
	b.ReportMetric(cdf.Max(), "max-s")
	b.ReportMetric(100*cdf.FractionAtOrBelow(15), "pct<=15s")
}

func BenchmarkFig4c_MakeOCDF(b *testing.B) {
	r := sharedRun(b)
	d := r.ComputeDurations()
	for i := 0; i < b.N; i++ {
		_ = d.Fig4c()
	}
	cdf := d.Fig4c()
	b.ReportMetric(100*cdf.FractionAtOrBelow(7), "pct<=7s")
	b.ReportMetric(cdf.Max(), "max-s")
}

func BenchmarkFig5_OverallRuntimeCDF(b *testing.B) {
	r := sharedRun(b)
	d := r.ComputeDurations()
	for i := 0; i < b.N; i++ {
		_ = d.Fig5()
	}
	cdf := d.Fig5()
	b.ReportMetric(100*cdf.FractionAtOrBelow(30), "pct<=30s")
	b.ReportMetric(100*cdf.FractionAtOrBelow(60), "pct<=60s")
	b.ReportMetric(cdf.Max(), "max-s")
}

func BenchmarkFig6_JanitorRuntimeCDF(b *testing.B) {
	r := sharedRun(b)
	d := r.ComputeDurations()
	for i := 0; i < b.N; i++ {
		_ = d.Fig6()
	}
	cdf := d.Fig6()
	b.ReportMetric(100*cdf.FractionAtOrBelow(60), "pct<=60s")
	b.ReportMetric(cdf.Max(), "max-s")
}

func BenchmarkSummary_Certification(b *testing.B) {
	r := sharedRun(b)
	for i := 0; i < b.N; i++ {
		_ = r.ComputeSummary()
	}
	s := r.ComputeSummary()
	b.ReportMetric(pctm(s.CertifiedAll, s.TotalAll), "certified-%")
	b.ReportMetric(pctm(s.CertifiedJanitor, s.TotalJanitor), "janitor-certified-%")
	b.ReportMetric(pctm(s.Untreatable, s.TotalAll), "untreatable-%")
}

func pctm(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// --- Pipeline benchmarks ---

// BenchmarkCheckCommit measures one end-to-end JMake check.
func BenchmarkCheckCommit(b *testing.B) {
	tree, man, err := jmake.GenerateKernel(11, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	hist, err := jmake.SynthesizeHistory(tree, man, 12, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	ids, _ := hist.Repo.Between("v4.3", "v4.4", jmake.ModifyingNonMerge)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jmake.CheckCommit(hist.Repo, ids[i%len(ids)], jmake.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateKernel measures substrate generation.
func BenchmarkGenerateKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := jmake.GenerateKernel(int64(i), 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the substrate ---

func BenchmarkMutationEngine(b *testing.B) {
	tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: 13, Scale: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	content, err := tree.Read(man.Drivers[0].CFile)
	if err != nil {
		b.Fatal(err)
	}
	lines := []int{5, 20, 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Mutate(man.Drivers[0].CFile, content, lines)
		if len(res.Mutations) == 0 {
			b.Fatal("no mutations")
		}
	}
}

func BenchmarkPreprocess(b *testing.B) {
	tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: 13, Scale: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	src := kbuild.TreeSource{T: tree}
	opts := cpp.Options{
		IncludeDirs: []string{"arch/x86_64/include", "include"},
		Defines:     map[string]string{"__KERNEL__": "1", "__x86_64__": "1"},
	}
	path := man.Drivers[0].CFile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpp.Preprocess(src, path, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileFrontEnd(b *testing.B) {
	tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: 13, Scale: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	src := kbuild.TreeSource{T: tree}
	res, err := cpp.Preprocess(src, man.Drivers[0].CFile, cpp.Options{
		IncludeDirs: []string{"arch/x86_64/include", "include"},
		Defines:     map[string]string{"__KERNEL__": "1", "__x86_64__": "1"},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.Compile(res.Output); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllYesConfig(b *testing.B) {
	tree, _, err := kernelgen.Generate(kernelgen.Params{Seed: 13, Scale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	kt, err := kconfig.Parse(kbuild.TreeSource{T: tree}, "arch/x86_64/Kconfig")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(kt.Len()), "symbols")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := kt.AllYesConfig()
		if cfg.Value("COMPILE_TEST") != kconfig.Yes {
			b.Fatal("empty config")
		}
	}
}

func BenchmarkMyersDiff(b *testing.B) {
	oldText := strings.Repeat("line one\nline two\nline three\n", 60)
	newText := strings.Replace(oldText, "line two", "line 2", 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, changed := textdiff.Diff("f", "f", oldText, newText); !changed {
			b.Fatal("no diff")
		}
	}
}
