// Command jmake checks that every changed line of a commit is subjected to
// the compiler, over a generated kernel-shaped workspace. It is the
// developer-facing tool of the paper (§III): run it after preparing a
// change, read which lines the compiler never saw.
//
// Usage:
//
//	jmake [-tree-scale S] [-commit-scale S] [-n N | -commit ID | -follow] [-show]
//
// With -n, the latest N window commits are checked; with -commit, one
// specific commit. With -json, each report is printed as indented JSON
// (and the workspace chatter goes to stderr), byte-identical to the
// report jmaked serves for the same commit.
//
// With -follow, the latest commits are consumed as an incremental
// stream: the session is seeded once, then each commit costs
// proportional to its diff (per-commit virtual vs effective cost goes to
// the diagnostic stream). Reports are byte-identical to one-shot checks;
// -follow-out DIR writes each as DIR/<commit>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"jmake"
	"jmake/internal/cliopts"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jmake:", err)
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
	ws.Register(flag.CommandLine, 0.4, 0.05)
	chk.Register(flag.CommandLine)
	cache.Register(flag.CommandLine)
	tro.Register(flag.CommandLine)
	var (
		n         = flag.Int("n", 5, "check the latest N window commits")
		commitID  = flag.String("commit", "", "check one specific commit ID")
		show      = flag.Bool("show", false, "print each commit's patch before the verdict")
		annotate  = flag.Bool("annotate", false, "print the patch with per-line compile verdicts")
		patchFile = flag.String("patch", "", "check a unified-diff patch file against the v4.4 tree instead of commits")
		jsonOut   = flag.Bool("json", false, "print each report as indented JSON (diagnostics go to stderr)")

		follow        = flag.Bool("follow", false, "follow the commit stream incrementally: one warm session, per-commit cost proportional to the diff")
		followN       = flag.Int("follow-n", 0, "with -follow, stream the latest N window commits (0 = the -n value)")
		followOut     = flag.String("follow-out", "", "with -follow, write each report to DIR/<commit>.json (bytes identical to -commit ID -json)")
		followWorkers = flag.Int("follow-workers", 1, "with -follow, check non-structural batches with this many workers")
	)
	flag.Parse()

	// Under -json, stdout is exactly the report(s); chatter goes to stderr.
	diag := os.Stdout
	if *jsonOut {
		diag = os.Stderr
	}

	fmt.Fprintln(diag, "generating workspace...")
	built, err := ws.Build()
	if err != nil {
		return err
	}
	fmt.Fprintf(diag, "workspace: %d files, %d window commits\n\n", built.Tree.Len(), len(built.WindowIDs))

	targets := built.Targets(*commitID, *n)
	opts := chk.Options()

	if *follow {
		nf := *followN
		if nf == 0 {
			nf = *n
		}
		return runFollow(built, opts, nf, *followWorkers, *jsonOut, *followOut, diag)
	}

	if *patchFile != "" {
		text, err := os.ReadFile(*patchFile)
		if err != nil {
			return err
		}
		head, err := built.Hist.Repo.TagID("v4.4")
		if err != nil {
			return err
		}
		base, err := built.Hist.Repo.CheckoutTree(head)
		if err != nil {
			return err
		}
		report, err := jmake.CheckPatchText(base, string(text), opts)
		if err != nil {
			return err
		}
		return emitReport("(patch file)", report, *jsonOut)
	}

	// One session across all targets so the commits share the arch index,
	// configuration cache, and compile-result cache. With -cache-dir the
	// result cache additionally survives across jmake runs.
	session, err := built.SessionAt(targets[0])
	if err != nil {
		return err
	}
	cache.Apply(session)

	var spans []*jmake.TraceSpan
	for _, id := range targets {
		if *show {
			text, err := built.Hist.Repo.Show(id)
			if err != nil {
				return err
			}
			fmt.Fprintln(diag, text)
		}
		var report *jmake.Report
		var err error
		if tro.Enabled() {
			var span *jmake.TraceSpan
			report, span, err = jmake.CheckCommitTraced(session, built.Hist.Repo, id, opts)
			spans = append(spans, span)
		} else {
			report, err = jmake.CheckCommitWith(session, built.Hist.Repo, id, opts)
		}
		if err != nil {
			return err
		}
		if err := emitReport(id, report, *jsonOut); err != nil {
			return err
		}
		if *annotate {
			fds, err := built.Hist.Repo.FileDiffs(id)
			if err != nil {
				return err
			}
			fmt.Fprint(diag, jmake.Annotate(fds, report))
		}
	}
	cache.PrintStats(diag, session)
	if tro.Enabled() {
		// Stamp once over the whole session: cache outcomes are defined by
		// first occurrence across all checked commits, in checking order.
		tr := jmake.MergeTraces(spans...)
		if err := tro.WriteFiles(tr.Chrome(4), tr.Tree(), diag); err != nil {
			return err
		}
	}
	if err := cache.Flush(session); err != nil {
		return fmt.Errorf("persisting result cache: %w", err)
	}
	return nil
}

// runFollow drives the incremental follower over the latest n window
// commits: seed once at the stream's parent, then per-commit cost
// proportional to the diff. Every emitted report is byte-identical to
// `jmake -commit ID -json` output for the same commit; the incremental
// machinery only changes the effective cost, which is printed per commit
// on the diagnostic stream.
func runFollow(built *cliopts.Built, opts jmake.Options, n, workers int, jsonOut bool, outDir string, diag io.Writer) error {
	ids := built.WindowIDs
	if n > 0 && len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	if len(ids) == 0 {
		return fmt.Errorf("no window commits to follow")
	}
	base, err := built.Hist.Repo.Parent(ids[0])
	if err != nil {
		return err
	}
	if base == "" {
		return fmt.Errorf("stream starts at the root commit; nothing to seed from")
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	fmt.Fprintf(diag, "following %d commits from %.12s (warm session, %d workers)\n\n", len(ids), base, workers)

	f, err := jmake.NewFollower(built.Hist.Repo, base, jmake.FollowOptions{Checker: opts, Workers: workers})
	if err != nil {
		return err
	}
	var emitErr error
	runErr := f.Run(ids, func(r jmake.FollowStep) bool {
		if r.Err != nil {
			emitErr = fmt.Errorf("commit %.12s: %w", r.Commit, r.Err)
			return false
		}
		eff := ""
		if r.EffectiveMeasured {
			pct := 100.0
			if r.VirtualSeconds > 0 {
				pct = 100 * r.EffectiveSeconds / r.VirtualSeconds
			}
			eff = fmt.Sprintf("  effective %.2fs (%.0f%% of cold)", r.EffectiveSeconds, pct)
		}
		fmt.Fprintf(diag, "commit %.12s: files=%d touched=%d invalidated_tus=%d structural=%v virtual %.2fs%s\n",
			r.Commit, r.Files, r.Touched, r.InvalidatedTUs, r.Structural, r.VirtualSeconds, eff)
		data, err := json.MarshalIndent(r.Report, "", "  ")
		if err != nil {
			emitErr = err
			return false
		}
		data = append(data, '\n')
		if outDir != "" {
			if err := os.WriteFile(filepath.Join(outDir, r.Commit+".json"), data, 0o644); err != nil {
				emitErr = err
				return false
			}
		} else if jsonOut {
			if _, err := os.Stdout.Write(data); err != nil {
				emitErr = err
				return false
			}
		} else {
			printReport(r.Commit, r.Report)
		}
		return true
	})
	if emitErr != nil {
		return emitErr
	}
	return runErr
}

func emitReport(id string, r *jmake.Report, asJSON bool) error {
	if asJSON {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}
	printReport(id, r)
	return nil
}

func printReport(id string, r *jmake.Report) {
	verdict := "NOT CERTIFIED"
	if r.Certified() {
		verdict = "CERTIFIED"
	}
	if len(r.Files) == 0 {
		verdict = "SKIPPED (no .c/.h changes)"
	}
	fmt.Printf("commit %.12s: %s  (virtual time %v)\n", id, verdict, r.Total.Round(1e6))
	if r.Retries > 0 || len(r.FaultEvents) > 0 {
		fmt.Printf("  resilience: %d injected faults, %d retries\n", len(r.FaultEvents), r.Retries)
	}
	if r.BudgetExhausted {
		fmt.Printf("  budget exhausted: checking stopped before completion\n")
	}
	if r.Interrupted {
		fmt.Printf("  interrupted: checking stopped before completion\n")
	}
	if len(r.QuarantinedArches) > 0 {
		fmt.Printf("  quarantined arches: %s\n", strings.Join(r.QuarantinedArches, ","))
	}
	for _, w := range r.PrescanWarnings {
		fmt.Printf("  prescan: %s line %d can never be compiled by standard configurations: %s\n",
			w.Mutation.File, w.Mutation.Line, w.Reason)
	}
	if r.StaticSkippedMakeI > 0 || r.StaticSkippedMakeO > 0 {
		fmt.Printf("  static pruning: skipped %d make.i and %d make.o invocations\n",
			r.StaticSkippedMakeI, r.StaticSkippedMakeO)
	}
	for _, d := range r.StaticDynamicDisagreements {
		fmt.Printf("  STATIC/DYNAMIC DISAGREEMENT: %s line %d on %s: predicted visible=%v, observed %v\n",
			d.File, d.Line, d.Arch, d.Predicted, d.Observed)
	}
	for _, f := range r.Files {
		fmt.Printf("  %-46s %-16s mutations %d/%d", f.Path, f.Status, f.FoundMutations, f.Mutations)
		if len(f.UsedArches) > 0 {
			fmt.Printf("  arches %s", strings.Join(f.UsedArches, ","))
		}
		if f.UsedDefconfig {
			fmt.Printf("  (defconfig)")
		}
		if f.ExtraCCompiles > 0 {
			fmt.Printf("  extra .c compiles %d", f.ExtraCCompiles)
		}
		fmt.Println()
		for _, e := range f.Escapes {
			fmt.Printf("      line %d not subjected to the compiler: %s\n",
				e.Mutation.Line, e.Reason)
		}
		if len(f.StaticDeadLines) > 0 {
			fmt.Printf("      statically dead lines (no compile issued): %v\n", f.StaticDeadLines)
		}
		if f.FailureDetail != "" {
			fmt.Printf("      %s\n", firstLine(f.FailureDetail))
		}
	}
	fmt.Println()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
