// Command jmake-eval reproduces the paper's §V evaluation: it generates
// the kernel-shaped tree and commit history, runs JMake over every patch
// between v4.3 and v4.4, and prints each table and figure.
//
// Usage:
//
//	jmake-eval [flags] [selectors...]
//
// Selectors: table1 table2 table3 table4 fig4a fig4b fig4c fig5 fig6
// archstats configstats mutstats cstats hstats summary limits
// invocations faults pipeline presence spans all (default: all).
//
// With -json, diagnostic `#` lines go to stderr so stdout is exactly the
// report: same-seed runs emit byte-identical JSON at any -workers setting.
// -runtime-metrics opts into the volatile scheduling figures (wall clock,
// throughput, worker configuration), which are NOT reproducible.
//
// -trace-out writes a Chrome trace-event JSON file of the whole run's
// virtual-time spans (load in Perfetto / chrome://tracing); -trace-tree
// writes the same spans as an indented text tree. Both are stamped with
// virtual times from the deterministic cost model, so like the JSON
// report they are byte-identical at any -workers setting and any
// result-cache state. The `spans` selector prints the per-kind summary
// table on stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"jmake"
	"jmake/internal/cliopts"
	"jmake/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jmake-eval:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		ws    cliopts.Workspace
		chk   cliopts.Check
		cache cliopts.Cache
		tro   cliopts.Trace
	)
	ws.Register(flag.CommandLine, 1.6, 1.0)
	chk.Register(flag.CommandLine)
	cache.Register(flag.CommandLine)
	tro.Register(flag.CommandLine)
	var (
		modelSeed  = flag.Uint64("model-seed", 3, "virtual-time model seed")
		workers    = flag.Int("workers", 0, "parallel patch workers (0 = auto, capped at 25)")
		runtimeMet = flag.Bool("runtime-metrics", false, "include volatile scheduling metrics (wall clock, throughput); output is no longer reproducible")
		points     = flag.Bool("points", false, "print figures as x/y points instead of ASCII plots")
		jsonOut    = flag.Bool("json", false, "emit the whole evaluation as machine-readable JSON and exit")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, s := range flag.Args() {
		want[strings.ToLower(s)] = true
	}
	if len(want) == 0 {
		want["all"] = true
	}
	sel := func(name string) bool { return want["all"] || want[name] }

	// Diagnostic chatter goes to stdout for humans, but to stderr under
	// -json so stdout is exactly the (reproducible) report.
	diag := os.Stdout
	if *jsonOut {
		diag = os.Stderr
	}
	fmt.Fprintf(diag, "# jmake-eval: tree-scale=%.2f commit-scale=%.2f workers=%d\n",
		ws.TreeScale, ws.CommitScale, *workers)
	traced := tro.Enabled() || want["spans"]
	start := time.Now()
	run, err := jmake.Evaluate(jmake.EvalParams{
		TreeSeed:      ws.TreeSeed,
		HistorySeed:   ws.HistorySeed,
		ModelSeed:     *modelSeed,
		TreeScale:     ws.TreeScale,
		CommitScale:   ws.CommitScale,
		Workers:       *workers,
		Checker:       chk.Options(),
		NoResultCache: cache.Disable,
		CacheDir:      cache.Dir,
		CacheMaxBytes: cache.MaxBytes,
		Trace:         traced,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(diag, "# evaluated %d window commits (%d skipped by path filter) in %v\n\n",
		len(run.Results), run.SkippedCount(), time.Since(start).Round(time.Millisecond))

	if tro.Enabled() {
		if err := tro.WriteFiles(run.ChromeTrace(), run.TraceTree(), diag); err != nil {
			return err
		}
	}

	if *jsonOut {
		var data []byte
		if *runtimeMet {
			data, err = run.JSONWithRuntime(*points)
		} else {
			data, err = run.JSON(*points)
		}
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}

	if sel("table1") {
		th := jmake.DefaultJanitorThresholds()
		fmt.Println("== Table I: thresholds on janitor activity ==")
		tb := stats.NewTable("criterion", "threshold")
		tb.AddRow("# patches", fmt.Sprintf(">= %d", th.MinPatches))
		tb.AddRow("# subsystems", fmt.Sprintf(">= %d", th.MinSubsystems))
		tb.AddRow("# lists", fmt.Sprintf(">= %d", th.MinLists))
		tb.AddRow("# maintainer patches", fmt.Sprintf("< %.0f%%", 100*th.MaxMaintainerFrac))
		fmt.Println(tb.String())
	}
	if sel("table2") {
		fmt.Println("== Table II: janitors identified ==")
		fmt.Println(run.TableII())
	}
	if sel("table3") {
		fmt.Println("== Table III: characteristics of patches ==")
		fmt.Println(run.ComputeTableIII().Render())
	}
	if sel("table4") {
		fmt.Println("== Table IV: reasons changed lines escape the compiler (janitor patches) ==")
		fmt.Println(run.ComputeTableIV(true).Render())
		fmt.Println("== Table IV companion: all patches ==")
		fmt.Println(run.ComputeTableIV(false).Render())
	}

	d := run.ComputeDurations()
	figs := []struct {
		name, label string
		cdf         *stats.CDF
	}{
		{"fig4a", "Fig 4a: configuration creation time (s)", d.Fig4a()},
		{"fig4b", "Fig 4b: .i generation time per invocation (s)", d.Fig4b()},
		{"fig4c", "Fig 4c: .o generation time per invocation (s)", d.Fig4c()},
		{"fig5", "Fig 5: overall running time per patch (s)", d.Fig5()},
		{"fig6", "Fig 6: overall running time per janitor patch (s)", d.Fig6()},
	}
	for _, f := range figs {
		if !sel(f.name) {
			continue
		}
		fmt.Printf("== %s ==\n", f.label)
		fmt.Printf("n=%d p50=%.1fs p82=%.1fs p95=%.1fs p98=%.1fs max=%.1fs\n",
			f.cdf.Len(), f.cdf.Percentile(0.50), f.cdf.Percentile(0.82),
			f.cdf.Percentile(0.95), f.cdf.Percentile(0.98), f.cdf.Max())
		if *points {
			for _, pt := range f.cdf.Points(40) {
				fmt.Printf("%.3f %.1f\n", pt[0], pt[1])
			}
		} else {
			fmt.Println(f.cdf.RenderASCII(64, 10, "seconds"))
		}
	}

	if sel("archstats") {
		fmt.Println("== §V-B: choice of architecture ==")
		fmt.Println(run.ComputeArchStats().Render())
	}
	if sel("configstats") {
		s := run.ComputeConfigStats()
		fmt.Println("== §V-B: allyesconfig vs configs/ defconfigs ==")
		fmt.Printf("patches fully certified with allyesconfig only: %d (%.0f%%)\n",
			s.CertifiedAllyesOnly, pct(s.CertifiedAllyesOnly, s.TotalPatches))
		fmt.Printf("patches fully certified with defconfigs too:    %d (%.0f%%)\n\n",
			s.CertifiedWithConfig, pct(s.CertifiedWithConfig, s.TotalPatches))
	}
	if sel("mutstats") {
		all := run.ComputeMutStats(false)
		jan := run.ComputeMutStats(true)
		fmt.Println("== §V-B: properties of mutations ==")
		tb := stats.NewTable("population", "one mutation", "<= 3 mutations", "max")
		tb.AddRow(".c (all)", pctS(all.OneC, all.TotalC), pctS(all.LeThreeC, all.TotalC), fmt.Sprintf("%d", all.MaxC))
		tb.AddRow(".h (all)", pctS(all.OneH, all.TotalH), pctS(all.LeThreeH, all.TotalH), fmt.Sprintf("%d", all.MaxH))
		tb.AddRow(".c (janitor)", pctS(jan.OneC, jan.TotalC), pctS(jan.LeThreeC, jan.TotalC), fmt.Sprintf("%d", jan.MaxC))
		tb.AddRow(".h (janitor)", pctS(jan.OneH, jan.TotalH), pctS(jan.LeThreeH, jan.TotalH), fmt.Sprintf("%d", jan.MaxH))
		fmt.Println(tb.String())
	}
	if sel("cstats") {
		all := run.ComputeCStats(false)
		jan := run.ComputeCStats(true)
		fmt.Println("== §V-B: benefits of mutations for .c files ==")
		fmt.Printf("all:     %d instances; clean first compile %d (%.0f%%); silent escapes %d; recovered via arches %d\n",
			all.Total, all.CleanFirst, pct(all.CleanFirst, all.Total), all.SilentEscapes, all.RecoveredByArch)
		fmt.Printf("janitor: %d instances; clean first compile %d (%.0f%%); silent escapes %d; recovered via arches %d\n\n",
			jan.Total, jan.CleanFirst, pct(jan.CleanFirst, jan.Total), jan.SilentEscapes, jan.RecoveredByArch)
	}
	if sel("hstats") {
		all := run.ComputeHStats(false)
		jan := run.ComputeHStats(true)
		fmt.Println("== §V-B: benefits of mutations for .h files ==")
		fmt.Printf("all:     %d instances; covered by patch's own .c %d (%.0f%%); needed extra %d; recovered %d; never %d; max extra compiles %d\n",
			all.Total, all.CoveredByPatchCs, pct(all.CoveredByPatchCs, all.Total),
			all.NeededExtra, all.RecoveredExtra, all.NeverCovered, all.MaxExtraCompiles)
		fmt.Printf("janitor: %d instances; covered by patch's own .c %d (%.0f%%); needed extra %d; recovered %d; never %d\n\n",
			jan.Total, jan.CoveredByPatchCs, pct(jan.CoveredByPatchCs, jan.Total),
			jan.NeededExtra, jan.RecoveredExtra, jan.NeverCovered)
	}
	if sel("summary") {
		s := run.ComputeSummary()
		fmt.Println("== §V-B summary ==")
		fmt.Printf("all patches:     %d/%d fully certified (%.0f%%)\n",
			s.CertifiedAll, s.TotalAll, pct(s.CertifiedAll, s.TotalAll))
		fmt.Printf("janitor patches: %d/%d fully certified (%.0f%%)\n",
			s.CertifiedJanitor, s.TotalJanitor, pct(s.CertifiedJanitor, s.TotalJanitor))
		fmt.Printf("patches needing a single make invocation: %d (%.0f%%)\n\n",
			s.SingleInvocationPatches, pct(s.SingleInvocationPatches, s.TotalAll))
	}
	if sel("limits") {
		s := run.ComputeSummary()
		fmt.Println("== §V-D: limitations ==")
		fmt.Printf("untreatable patches (build-setup files): %d of %d (%.1f%%)\n\n",
			s.Untreatable, s.TotalAll, pct(s.Untreatable, s.TotalAll))
	}
	if sel("invocations") {
		printInvocationStats(run)
	}
	if sel("faults") {
		fmt.Println("== resilience: injected faults, retries, budgets ==")
		fmt.Println(run.ComputeFaultStats().Render())
	}
	if sel("pipeline") {
		fmt.Println("== parallel evaluation pipeline ==")
		fmt.Println(run.RenderPipeline(*runtimeMet))
	}
	if sel("presence") && chk.Static {
		fmt.Println("== static presence-condition analysis ==")
		fmt.Println(run.ComputePresenceStats().Render())
	}
	if sel("spans") && traced {
		fmt.Println("== virtual-time spans by kind ==")
		fmt.Println(run.TraceSummary())
	}
	return nil
}

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func pctS(n, d int) string { return fmt.Sprintf("%.0f%%", pct(n, d)) }

// printInvocationStats reports the §V-C per-patch invocation counts.
func printInvocationStats(run *jmake.Run) {
	var configs, makeIs, makeOs []int
	for _, res := range run.Results {
		if res.Skipped || res.Report == nil {
			continue
		}
		configs = append(configs, len(res.Report.ConfigDurations))
		makeIs = append(makeIs, len(res.Report.MakeIDurations))
		makeOs = append(makeOs, len(res.Report.MakeODurations))
	}
	show := func(name string, xs []int) {
		sort.Ints(xs)
		if len(xs) == 0 {
			return
		}
		one := 0
		for _, x := range xs {
			if x <= 1 {
				one++
			}
		}
		fmt.Printf("%-22s one-or-fewer %.0f%%, p95 %d, max %d\n",
			name, pct(one, len(xs)), xs[len(xs)*95/100], xs[len(xs)-1])
	}
	fmt.Println("== §V-C: invocations per patch ==")
	show("configurations", configs)
	show(".i invocations", makeIs)
	show(".o invocations", makeOs)
	fmt.Println()
}
