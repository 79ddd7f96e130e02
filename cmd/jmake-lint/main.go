// Command jmake-lint runs the static presence-condition analysis over real
// files on disk, without building anything: for every .c/.h file it reports
// the per-line #if condition, the Kbuild gate when a Makefile chain is
// present, and the lines no configuration can ever compile. It is the
// standalone face of the analysis internal/core uses to prune compiles
// (DESIGN.md §9).
//
// With -audit it instead runs the whole-tree configuration-mismatch audit
// (internal/audit): undefined CONFIG_* references, dead symbols,
// contradictory dependency chains, and blocks unsatisfiable under every
// architecture. The audit exit code is the finding count (capped at 100);
// 101 signals an audit failure or a -audit-verify mismatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"jmake/internal/audit"
	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/metrics"
	"jmake/internal/presence"
	"jmake/internal/stats"
)

// auditFailExit signals an audit error or ground-truth mismatch, above the
// capped finding-count range.
const auditFailExit = 101

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jmake-lint:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		root     = flag.String("root", ".", "source tree root (Makefile chain, if any, is resolved from here)")
		arch     = flag.String("arch", kbuild.HostArch, "architecture for SRCARCH Makefile expansion")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		deadOnly = flag.Bool("dead", false, "report only provably-dead lines")
		summary  = flag.Bool("summary", false, "print the per-arch/per-stage analysis summary table after the reports")
		auditRun = flag.Bool("audit", false, "run the whole-tree configuration-mismatch audit instead of per-file reports")
		workers  = flag.Int("workers", 1, "parallel file-scan workers for -audit (output is identical at any value)")
		baseline = flag.String("baseline", "", "JSON file with a string array of symbols whose audit findings are suppressed")
		verify   = flag.String("audit-verify", "", "JSON ground-truth manifest the audit findings must match exactly")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: jmake-lint [flags] [file ...]\n\n"+
				"Without file arguments, every .c/.h file under -root is analyzed.\n"+
				"File arguments are paths relative to -root.\n"+
				"With -audit, the whole tree is audited for configuration mismatches\n"+
				"and the exit code is the finding count (capped at 100; 101 = failure).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	tree, err := fstree.LoadDir(*root)
	if err != nil {
		return 0, err
	}
	if *auditRun {
		return runAudit(tree, *workers, *baseline, *verify, *jsonOut)
	}
	paths := flag.Args()
	if len(paths) == 0 {
		for _, p := range tree.Paths() {
			if strings.HasSuffix(p, ".c") || strings.HasSuffix(p, ".h") {
				paths = append(paths, p)
			}
		}
		sort.Strings(paths)
	}

	// The analysis tallies flow through the same metrics registry the
	// build pipeline uses, so the summary table reads from the registry —
	// never from a second, hand-maintained counter pile.
	reg := metrics.NewRegistry()
	var gates *kbuild.MakefileCache
	if tree.Exists("Makefile") {
		gates = kbuild.NewMakefileCache(tree)
	}
	var results []fileResult
	for _, p := range paths {
		p = fstree.Clean(p)
		content, err := tree.Read(p)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		results = append(results, analyzeOne(gates, p, content, *arch, reg))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return 0, enc.Encode(results)
	}
	for _, r := range results {
		printText(r, *deadOnly)
	}
	if *summary {
		fmt.Println("== analysis summary by stage and arch ==")
		fmt.Println(renderSummary(reg, *arch))
	}
	return 0, nil
}

// runAudit executes the whole-tree audit and maps its outcome to the exit
// code: the finding count (capped at 100), or auditFailExit when the audit
// could not run or the report does not match a -audit-verify manifest.
func runAudit(tree *fstree.Tree, workers int, baselinePath, verifyPath string, jsonOut bool) (int, error) {
	ignore := make(map[string]bool)
	if baselinePath != "" {
		var syms []string
		if err := readJSONFile(baselinePath, &syms); err != nil {
			return auditFailExit, fmt.Errorf("baseline: %w", err)
		}
		for _, s := range syms {
			ignore[s] = true
		}
	}
	rep, err := audit.Run(audit.Params{Tree: tree, Ignore: ignore, Workers: workers})
	if err != nil {
		return auditFailExit, err
	}
	if jsonOut {
		b, err := rep.JSON()
		if err != nil {
			return auditFailExit, err
		}
		os.Stdout.Write(b)
	} else {
		fmt.Print(rep.Text())
	}
	code := len(rep.Findings)
	if code > 100 {
		code = 100
	}
	if verifyPath != "" {
		var want []audit.Expectation
		if err := readJSONFile(verifyPath, &want); err != nil {
			return auditFailExit, fmt.Errorf("audit-verify: %w", err)
		}
		missing, extra := audit.Verify(rep, want)
		for _, e := range missing {
			fmt.Fprintf(os.Stderr, "jmake-lint: audit-verify: expected finding missing: %s\n", e)
		}
		for _, f := range extra {
			fmt.Fprintf(os.Stderr, "jmake-lint: audit-verify: finding beyond ground truth: [%s] %s:%d %s\n",
				f.Category, f.File, f.Line, f.Symbol)
		}
		if len(missing) > 0 || len(extra) > 0 {
			return auditFailExit, fmt.Errorf("audit-verify: %d missing, %d extra", len(missing), len(extra))
		}
		fmt.Fprintf(os.Stderr, "jmake-lint: audit-verify: all %d expected findings matched exactly\n", len(want))
	}
	return code, nil
}

func readJSONFile(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, into)
}

// lint stage names for the summary table; "gate" tallies only run for .c
// files under a Makefile chain, "presence" and "dead" for every file.
var lintStages = []struct{ stage, metric string }{
	{"files", "lint_files"},
	{"gate", "lint_gates_resolved"},
	{"gate-module", "lint_gates_module"},
	{"presence", "lint_conditional_lines"},
	{"dead", "lint_dead_lines"},
}

func renderSummary(reg *metrics.Registry, arch string) string {
	tb := stats.NewTable("stage", "arch", "count")
	for _, s := range lintStages {
		tb.AddRow(s.stage, arch, fmt.Sprintf("%d", reg.Counter(s.metric, metrics.L("arch", arch)).Value()))
	}
	return tb.String()
}

// fileResult is one file's report, shared between the text and JSON modes.
type fileResult struct {
	File string `json:"file"`
	// Gate lists the CONFIG variables the Kbuild descent requires (empty
	// when no Makefile chain gates the file or none could be resolved).
	Gate []string `json:"gate,omitempty"`
	// GateModule is true when the file's own rule is obj-m.
	GateModule bool `json:"gate_module,omitempty"`
	// Conds holds one entry per line under a non-trivial #if condition.
	Conds []lineCond `json:"conds,omitempty"`
	// Dead lists lines whose condition is provably unsatisfiable.
	Dead []int `json:"dead,omitempty"`
}

type lineCond struct {
	Line int    `json:"line"`
	Cond string `json:"cond"`
}

// analyzeOne reports one file. gates walks the Kbuild descent of .c files;
// nil when the tree has no root Makefile, so no file is gated.
func analyzeOne(gates *kbuild.MakefileCache, p, content, arch string, reg *metrics.Registry) fileResult {
	byArch := metrics.L("arch", arch)
	reg.Counter("lint_files", byArch).Inc()
	r := fileResult{File: p}
	if strings.HasSuffix(p, ".c") && gates != nil {
		if gate, err := gates.FileGate(p, arch); err == nil {
			r.Gate = gate.Vars
			r.GateModule = gate.OwnModule
			if len(gate.Vars) > 0 {
				reg.Counter("lint_gates_resolved", byArch).Inc()
			}
			if gate.OwnModule {
				reg.Counter("lint_gates_module", byArch).Inc()
			}
		}
	}
	f := presence.Analyze(p, content)
	for n := 1; n <= f.Len(); n++ {
		cond := f.LineCond(n)
		if cond == presence.True {
			continue
		}
		r.Conds = append(r.Conds, lineCond{Line: n, Cond: cond.String()})
	}
	r.Dead = f.DeadLines()
	reg.Counter("lint_conditional_lines", byArch).Add(uint64(len(r.Conds)))
	reg.Counter("lint_dead_lines", byArch).Add(uint64(len(r.Dead)))
	return r
}

func printText(r fileResult, deadOnly bool) {
	if deadOnly {
		for _, n := range r.Dead {
			fmt.Printf("%s:%d: dead: no configuration compiles this line\n", r.File, n)
		}
		return
	}
	fmt.Printf("== %s\n", r.File)
	if len(r.Gate) > 0 {
		kind := "builtin or module"
		if r.GateModule {
			kind = "module only"
		}
		fmt.Printf("gate: CONFIG_%s (%s)\n", strings.Join(r.Gate, " && CONFIG_"), kind)
	}
	for _, lc := range r.Conds {
		fmt.Printf("%4d: %s\n", lc.Line, lc.Cond)
	}
	if len(r.Dead) > 0 {
		parts := make([]string, len(r.Dead))
		for i, n := range r.Dead {
			parts[i] = fmt.Sprint(n)
		}
		fmt.Printf("dead: %s\n", strings.Join(parts, " "))
	}
}
