package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"jmake/internal/audit"
	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/kernelgen"
	"jmake/internal/metrics"
	"jmake/internal/presence"
	"jmake/internal/trace"
	"jmake/internal/vclock"
)

// audit runs the whole-tree audit the way `jmake-lint -audit` does
// (fresh Kconfig parse, sched workers) over seeded trees that carry
// kernelgen.InjectMismatches ground truth. It is the only workload where
// presence and the kconfig symbol model do the work.
type auditTree struct {
	tree   *fstree.Tree
	ignore map[string]bool
	want   []audit.Expectation
}

func setupAudit(e *env) ([]auditTree, error) {
	var out []auditTree
	for k := 0; k < e.p.auditTrees; k++ {
		seed := e.seed*int64(e.p.auditTrees) + int64(k)
		tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: seed, Scale: e.p.auditTreeScale})
		if err != nil {
			return nil, err
		}
		inj, err := kernelgen.InjectMismatches(tree, seed, e.p.auditInject)
		if err != nil {
			return nil, err
		}
		at := auditTree{tree: tree, ignore: map[string]bool{}}
		for _, s := range man.AuditBaseline {
			at.ignore[s] = true
		}
		for _, m := range inj {
			at.want = append(at.want, audit.Expectation{Category: audit.Category(m.Category), File: m.File, Line: m.Line, Symbol: m.Symbol})
		}
		out = append(out, at)
	}
	return out, nil
}

type auditOut struct {
	rep      *audit.Report
	lat, cpu time.Duration // cpu is the process's: audit.Run scans on a worker goroutine
	err      error
	vspan    *trace.Span
}

// audits runs n audits round-robin over the trees. A traced run passes
// reg, spans each kconfig.Parse the audit makes, and records the audit's
// virtual spans.
func audits(e *env, trees []auditTree, n int, reg *metrics.Registry, log *spanLog) []auditOut {
	var outs []auditOut
	model := vclock.DefaultModel(uint64(e.seed))
	for i := 0; i < n; i++ {
		at := trees[i%len(trees)]
		p := audit.Params{Tree: at.tree, Ignore: at.ignore, Workers: e.p.workers, Reg: reg}
		var rec *trace.Recorder
		opID := log.open("audit.run", i, 0, false)
		if log != nil {
			rec = trace.NewRecorder("audit", model.NewClock())
			p.Rec = rec
			p.Kconfig = func(_, root string) (kt *kconfig.Tree, err error) {
				log.timed("kconfig.parse", i, opID, func() { kt, err = kconfig.Parse(kbuild.TreeSource{T: at.tree}, root) })
				return kt, err
			}
		}
		c0, start := processCPU(), time.Now()
		var o auditOut
		o.rep, o.err = audit.Run(p)
		o.lat, o.cpu = time.Since(start), processCPU()-c0
		log.close(opID)
		o.vspan = rec.Finish()
		outs = append(outs, o)
	}
	return outs
}

// judgeAudit fails an audit that errs or does not match its injected
// ground truth exactly (nothing missing, nothing extra).
func judgeAudit(o *outcome, i int, at auditTree, a auditOut) {
	if a.err != nil {
		o.fail("audit %d: %v", i, a.err)
		return
	}
	missing, extra := audit.Verify(a.rep, at.want)
	if len(missing) > 0 || len(extra) > 0 {
		o.fail("audit %d: %d expected findings missing, %d beyond ground truth", i, len(missing), len(extra))
	}
}

// auditCounts are the first round's findings and files per tree.
func auditCounts(outs []auditOut, trees int) map[string]int64 {
	c := map[string]int64{}
	for i := 0; i < trees && i < len(outs); i++ {
		if r := outs[i].rep; r != nil {
			c[fmt.Sprintf("tree%d_findings", i)] = int64(len(r.Findings))
			c[fmt.Sprintf("tree%d_files", i)] = int64(r.Files)
		}
	}
	return c
}

func runAudit(e *env) (*outcome, error) {
	o := newOutcome()
	// Tree generation takes tens of milliseconds, so more repeats cost
	// nothing and steady the median.
	repeats := 3 * e.p.setupRepeats
	if e.traced {
		repeats = 1
	}
	trees, setupS, err := timeSetup(repeats, func() ([]auditTree, error) { return setupAudit(e) })
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS
	files := 0
	for _, at := range trees {
		files += at.tree.Len()
	}
	o.props["files_per_tree"] = float64(files) / float64(len(trees))
	o.props["injected_per_tree"] = e.p.auditInject
	if e.traced {
		return o, auditTraced(e, o, trees)
	}

	// Rounds audit every tree once, until the budget is spent (at least
	// three, so every tree's audit has a median).
	heap := startHeapSampler(5 * time.Millisecond)
	var first []auditOut
	var busy time.Duration
	var passes []passRecord
	for busy < e.budget() || len(passes) < minPasses {
		runtime.GC()
		c0, start := processCPU(), time.Now()
		round := audits(e, trees, len(trees), nil, nil)
		rec := passRecord{wall: time.Since(start), cpu: processCPU() - c0}
		busy += rec.wall
		o.attempted += len(round)
		for i, a := range round {
			rec.add(a.lat, a.cpu)
			judgeAudit(o, i, trees[i], a)
		}
		passes = append(passes, rec)
		if first == nil {
			first = round
		}
	}
	o.metrics["peak_heap_mb"] = heap.stopMB()
	passFigures(o, passes)
	o.counts = auditCounts(first, len(trees))
	return o, nil
}

// auditTraced audits two rounds untraced, the same rounds traced and
// profiled, then replays presence.Analyze and MakefileCache.FileGate over
// every audited file.
func auditTraced(e *env, o *outcome, trees []auditTree) error {
	n := 2 * len(trees)
	runtime.GC()
	outsA := audits(e, trees, n, nil, nil)
	reg := metrics.NewRegistry()
	runtime.GC()
	var outsB []auditOut
	before := snapRuntime()
	shares, samples, err := profiled(func() { outsB = audits(e, trees, n, reg, e.log) })
	if err != nil {
		return err
	}
	runtime.GC()
	after := snapRuntime()
	setProfileShares(o, shares, samples)
	o.attempted = len(outsB)
	o.metrics["runtime.gc_cpu_share"], o.metrics["runtime.cpu_ms_per_op"], o.metrics["runtime.alloc_mb_per_op"] =
		runtimeLayer(before, after, len(outsB))
	var sumA, sumB float64
	spans := 0
	for i, a := range outsB {
		judgeAudit(o, i, trees[i%len(trees)], a)
		sumA += float64(outsA[i].lat)
		sumB += float64(a.lat)
		a.vspan.Walk(func(*trace.Span) { spans++ })
	}
	o.counts = auditCounts(outsB, len(trees))
	sameWork(o, auditCounts(outsA, len(trees)), o.counts)
	o.metrics["trace.overhead_share"] = ratio(sumB, sumA) - 1
	o.metrics["trace.spans_per_patch"] = ratio(float64(spans), float64(n))
	counter := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	o.metrics["audit.files"] = counter("audit_files") / float64(n)
	findings := 0.0
	for _, c := range audit.Categories {
		findings += float64(reg.Counter("audit_findings", metrics.L("category", string(c))).Value())
	}
	o.metrics["audit.findings"] = findings / float64(n)

	// Replays over each tree's audited files, until the budget runs out.
	deadline := time.Now().Add(e.budget() / 2)
	analyzed, gates := 0, 0
	for k, at := range trees {
		var paths []string
		for _, p := range at.tree.Paths() {
			if strings.HasSuffix(p, ".c") || strings.HasSuffix(p, ".h") {
				paths = append(paths, p)
			}
		}
		sort.Strings(paths)
		arches := archNames(at.tree)
		mc := kbuild.NewMakefileCache(at.tree)
		for _, p := range paths {
			if time.Now().After(deadline) {
				break
			}
			content, err := at.tree.Read(p)
			if err != nil {
				return err
			}
			e.log.replay("presence.analyze", k, 0, func() { presence.Analyze(p, content) })
			analyzed++
			if !strings.HasSuffix(p, ".c") {
				continue
			}
			for _, a := range arches {
				e.log.replay("kbuild.gate", k, 0, func() { _, _ = mc.FileGate(p, a) })
				gates++
			}
		}
	}
	st := e.log.stats()
	o.metrics["presence.analyze_ms"] = st["presence.analyze"].meanMS()
	o.metrics["kbuild.gate_ms"] = st["kbuild.gate"].meanMS()
	o.metrics["kconfig.parse_ms"] = st["kconfig.parse"].meanMS()
	o.metrics["fstree.files"] = o.props["files_per_tree"].(float64)
	o.notes["replayed_files"], o.notes["replayed_gates"] = analyzed, gates
	o.notes["replay_cache_state"] = "kconfig.parse is spanned in situ through audit.Params.Kconfig; FileGate replays use one fresh MakefileCache per tree, as each audit does"
	zeroLayers(o)
	return nil
}

// archNames lists the architectures the audit discovers (arch/<name>/Kconfig).
func archNames(t *fstree.Tree) []string {
	var out []string
	for _, p := range t.Under("arch") {
		parts := strings.Split(p, "/")
		if len(parts) == 3 && parts[2] == "Kconfig" {
			out = append(out, parts[1])
		}
	}
	sort.Strings(out)
	return out
}
