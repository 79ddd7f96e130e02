// Package audit implements the whole-tree configuration-mismatch analysis:
// it walks every Kbuild gate, Kconfig symbol, and preprocessor conditional
// of a source tree and reports typed findings in the defect classes of
// El-Sharkawy et al.'s configuration-mismatch study — references to
// undefined CONFIG_* symbols, symbols dead by construction, contradictory
// dependency chains and select-vs-depends conflicts, and #if blocks no
// architecture/configuration valuation can ever compile.
//
// Unlike the per-commit static pre-pass (internal/core), which proves
// changed lines dead to skip builds, the audit quantifies over the whole
// tree and over every architecture: a block is reported dead only when its
// presence formula is unsatisfiable under each architecture's Kconfig
// constraints. All proofs go through presence.Decide, whose explicit
// SatUnknown result guarantees a bounded-enumeration give-up is never
// misread as a proof; unknowns are counted, not reported.
package audit

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/metrics"
	"jmake/internal/sched"
	"jmake/internal/trace"
)

// Category classifies a finding. The four categories are disjoint by
// construction: an undefined symbol disqualifies its block from dead-code
// analysis, a dead symbol is not re-reported as a contradiction, and a
// select conflict is keyed on the selector, not the target.
type Category string

const (
	// CatUndefinedRef is a CONFIG_* reference — in an obj-$(CONFIG_X)
	// Kbuild rule or a preprocessor conditional — to a symbol no Kconfig
	// file of any architecture declares.
	CatUndefinedRef Category = "undefined-reference"
	// CatDeadSymbol is a declared symbol whose own `depends on` expression
	// is unsatisfiable in every architecture that declares it.
	CatDeadSymbol Category = "dead-symbol"
	// CatContradiction is a symbol whose transitive depends-on chain is
	// contradictory although each link is locally satisfiable, or a
	// `select` whose every enabling configuration violates the selected
	// symbol's dependencies.
	CatContradiction Category = "contradiction"
	// CatDeadCode is a conditional block whose presence formula (#if stack
	// ∧ Kbuild gate ∧ Kconfig constraints) is unsatisfiable under every
	// architecture — tree-wide dead code, distinct from the per-commit
	// StatusStaticDead classification.
	CatDeadCode Category = "dead-code"
)

// Categories lists every category in report order.
var Categories = []Category{CatUndefinedRef, CatDeadSymbol, CatContradiction, CatDeadCode}

func catRank(c Category) int {
	for i, k := range Categories {
		if k == c {
			return i
		}
	}
	return len(Categories)
}

// Finding is one mismatch. Line is 0 for Kconfig-level findings (the
// symbol parser does not track line numbers); EndLine is set only for
// dead-code block findings.
type Finding struct {
	Category Category `json:"category"`
	File     string   `json:"file"`
	Line     int      `json:"line,omitempty"`
	EndLine  int      `json:"end_line,omitempty"`
	// Symbol is the Kconfig symbol name without the CONFIG_ prefix; for
	// dead-code findings it names the first configuration symbol of the
	// block's condition.
	Symbol string `json:"symbol,omitempty"`
	Detail string `json:"detail"`
}

// Report is the audit result. Findings are in canonical order (category
// rank, file, line, symbol, detail) and Counts always carries all four
// category keys, so the JSON encoding is byte-identical across runs and
// worker counts.
type Report struct {
	Arches     []string         `json:"arches"`
	Files      int              `json:"files"`
	Symbols    int              `json:"symbols"`
	GateRefs   int              `json:"gate_refs"`
	Counts     map[Category]int `json:"counts"`
	Unknown    int              `json:"unknown"`
	Suppressed int              `json:"suppressed"`
	Findings   []Finding        `json:"findings"`
}

// Params configures a run. Only Tree is required.
type Params struct {
	Tree *fstree.Tree
	// Ignore suppresses findings whose symbol (or its _MODULE root) is in
	// the set — kernelgen trees record their intentional escape-class
	// fixtures here (Manifest.AuditBaseline) so a clean generated tree
	// audits to zero findings.
	Ignore map[string]bool
	// Workers parallelizes the per-file scan; results are byte-identical
	// at any value. Values below 1 mean 1.
	Workers int
	// Reg receives audit_* counters when non-nil.
	Reg *metrics.Registry
	// Rec receives deterministic virtual-time audit spans when non-nil.
	Rec *trace.Recorder
	// Kconfig overrides how an architecture's tree is parsed; the daemon
	// passes the warm Session's memoized provider. nil parses fresh.
	Kconfig func(archName, rootPath string) (*kconfig.Tree, error)
}

// archCtx is one architecture's Kconfig knowledge.
type archCtx struct {
	name string
	root string
	kt   *kconfig.Tree
}

// Deterministic virtual-time prices for trace spans: proportional to work
// items, independent of wall clock and worker count.
const (
	symbolCost  = 20 * time.Microsecond
	gateRefCost = 5 * time.Microsecond
	fileCost    = 300 * time.Microsecond
)

// Run audits the tree and returns the report. An error means the tree has
// no Kconfig root or an architecture's Kconfig failed to parse — the audit
// refuses to report "no findings" when it could not load the symbol
// tables it checks against.
func Run(p Params) (*Report, error) { return run(p, checkSymbols) }

// symbolPass is the Kconfig symbol-level pass: findings over the declared
// symbols, and the number of checks that gave up. Tests substitute a
// reference that checks every architecture.
type symbolPass func(arches []*archCtx, declared, ignore map[string]bool, suppressed *int) ([]Finding, int)

// run is Run with the symbol-level pass given.
func run(p Params, symbols symbolPass) (*Report, error) {
	t := p.Tree
	arches, err := discoverArches(p)
	if err != nil {
		return nil, err
	}

	// A symbol declared by any architecture's tree — including broken or
	// quirk architectures — is not "undefined"; per-arch deadness handles
	// the rest.
	declared := make(map[string]bool)
	for _, ac := range arches {
		for _, name := range ac.kt.Names() {
			declared[name] = true
		}
	}

	rep := &Report{
		Counts:   make(map[Category]int, len(Categories)),
		Findings: []Finding{},
	}
	for _, ac := range arches {
		rep.Arches = append(rep.Arches, ac.name)
	}
	rep.Symbols = len(declared)

	// Kconfig symbol checks: dead symbols, contradictory chains, select
	// conflicts. A symbol-level finding must hold in every architecture
	// that declares the symbol — an option alive somewhere is not dead.
	symFindings, unknown := symbols(arches, declared, p.Ignore, &rep.Suppressed)
	rep.Unknown += unknown
	rep.Findings = append(rep.Findings, symFindings...)
	p.Rec.Leaf("audit-symbols", time.Duration(rep.Symbols)*symbolCost,
		trace.A("symbols", fmt.Sprint(rep.Symbols)))

	// Kbuild gate references: every obj-$(CONFIG_X) rule in the tree.
	refFindings, nRefs := gateRefFindings(t, arches[0].name, declared, p.Ignore, &rep.Suppressed)
	rep.GateRefs = nRefs
	rep.Findings = append(rep.Findings, refFindings...)
	p.Rec.Leaf("audit-gates", time.Duration(nRefs)*gateRefCost,
		trace.A("gate_refs", fmt.Sprint(nRefs)))

	// Per-file scan: undefined references in conditionals and tree-wide
	// dead blocks. Files are processed in sorted order with in-order
	// result merge, so the output is invariant under Workers.
	var files []string
	for _, path := range t.Paths() {
		if strings.HasSuffix(path, ".c") || strings.HasSuffix(path, ".h") {
			files = append(files, path)
		}
	}
	sort.Strings(files)
	rep.Files = len(files)
	hasRootMk := t.Exists("Makefile")
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	scans, _ := sched.Collect(len(files), sched.Options{Workers: workers}, func(i int) fileScan {
		return scanFile(t, files[i], arches, declared, p.Ignore, hasRootMk)
	})
	for _, fs := range scans {
		rep.Findings = append(rep.Findings, fs.findings...)
		rep.Unknown += fs.unknown
		rep.Suppressed += fs.suppressed
	}
	p.Rec.Leaf("audit-files", time.Duration(len(files))*fileCost,
		trace.A("files", fmt.Sprint(len(files))))

	sortFindings(rep.Findings)
	for _, c := range Categories {
		rep.Counts[c] = 0
	}
	for _, f := range rep.Findings {
		rep.Counts[f.Category]++
	}

	if p.Reg != nil {
		p.Reg.Counter("audit_files").Add(uint64(rep.Files))
		p.Reg.Counter("audit_symbols").Add(uint64(rep.Symbols))
		p.Reg.Counter("audit_gate_refs").Add(uint64(rep.GateRefs))
		p.Reg.Counter("audit_sat_unknown").Add(uint64(rep.Unknown))
		p.Reg.Counter("audit_suppressed").Add(uint64(rep.Suppressed))
		for _, c := range Categories {
			p.Reg.Counter("audit_findings", metrics.L("category", string(c))).Add(uint64(rep.Counts[c]))
		}
	}
	return rep, nil
}

// discoverArches finds the Kconfig roots: one per arch/<name>/Kconfig, or
// the tree root's Kconfig as a single pseudo-architecture ("all") when no
// arch directories exist (fixture corpora).
func discoverArches(p Params) ([]*archCtx, error) {
	t := p.Tree
	var out []*archCtx
	for _, path := range t.Paths() {
		parts := strings.Split(path, "/")
		if len(parts) == 3 && parts[0] == "arch" && parts[2] == "Kconfig" {
			out = append(out, &archCtx{name: parts[1], root: path})
		}
	}
	if len(out) == 0 {
		if t.Exists("Kconfig") {
			out = append(out, &archCtx{name: "all", root: "Kconfig"})
		} else {
			return nil, fmt.Errorf("audit: no Kconfig root found (neither arch/*/Kconfig nor Kconfig)")
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	parse := p.Kconfig
	if parse == nil {
		parse = func(_, root string) (*kconfig.Tree, error) {
			return kconfig.Parse(kbuild.TreeSource{T: t}, root)
		}
	}
	for _, ac := range out {
		kt, err := parse(ac.name, ac.root)
		if err != nil {
			return nil, fmt.Errorf("audit: parsing %s: %w", ac.root, err)
		}
		ac.kt = kt
	}
	return out, nil
}

// sortFindings puts findings in the canonical report order.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if ra, rb := catRank(a.Category), catRank(b.Category); ra != rb {
			return ra < rb
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Symbol != b.Symbol {
			return a.Symbol < b.Symbol
		}
		return a.Detail < b.Detail
	})
}

// ignored reports whether a symbol name (without prefix) or its _MODULE
// root is in the suppression set.
func ignored(ignore map[string]bool, sym string) bool {
	if len(ignore) == 0 || sym == "" {
		return false
	}
	if ignore[sym] {
		return true
	}
	if root, ok := strings.CutSuffix(sym, "_MODULE"); ok && ignore[root] {
		return true
	}
	return false
}

// declaredRoot reports whether name (without prefix) is declared in some
// architecture, accepting CONFIG_X_MODULE spellings of a declared X.
func declaredRoot(declared map[string]bool, name string) bool {
	if declared[name] {
		return true
	}
	if root, ok := strings.CutSuffix(name, "_MODULE"); ok && declared[root] {
		return true
	}
	return false
}
