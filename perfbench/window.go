package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"jmake"
	"jmake/internal/cliopts"
	"jmake/internal/core"
	"jmake/internal/fstree"
	"jmake/internal/sched"
	"jmake/internal/trace"
	"jmake/internal/vclock"
)

// window is the jmake-eval path: one fresh session with no persistent
// cache checks a slice of the v4.3→v4.4 window, its patches fanned over a
// closed-loop sched pool. Every translation unit is preprocessed and
// compiled once per pass, so cpp, fstree, kbuild and cc do the work and
// the result cache only stores.
type windowWL struct {
	built *cliopts.Built
	ids   []string
	base  *fstree.Tree
	sess  *core.Session // the set-up session, used by the first pass
	model *vclock.Model
}

func setupWindow(e *env) (*windowWL, error) {
	b, err := e.p.workspace(e.seed).Build()
	if err != nil {
		return nil, err
	}
	ids := b.WindowIDs
	if len(ids) > e.p.windowCommits {
		ids = ids[:e.p.windowCommits]
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("empty window")
	}
	w := &windowWL{built: b, ids: ids, model: vclock.DefaultModel(uint64(e.seed))}
	if w.base, err = b.Hist.Repo.CheckoutTree(ids[0]); err != nil {
		return nil, err
	}
	if w.sess, err = core.NewSession(w.base); err != nil {
		return nil, err
	}
	return w, nil
}

// freshSession hands out the set-up session once, then new ones.
func (w *windowWL) freshSession() (*core.Session, error) {
	if s := w.sess; s != nil {
		w.sess = nil
		return s, nil
	}
	return core.NewSession(w.base)
}

// patchOut is one checked window commit.
type patchOut struct {
	report  *jmake.Report
	vspan   *trace.Span // the program's virtual span tree (traced passes)
	lat     time.Duration
	cpu     time.Duration // the checking thread's CPU time
	skipped bool
	err     error
	cFiles  int
	hFiles  int
	checkID int // the core.check span (traced passes)
}

// check times checkOp on its thread.
func (w *windowWL) check(sess *core.Session, i int, log *spanLog) patchOut {
	var out patchOut
	wall, cpu := onCPU(func() { out = w.checkOp(sess, i, log) })
	out.lat, out.cpu = wall, cpu
	return out
}

// checkOp is eval's per-patch pipeline through public calls: commit
// lookup, diff, path filter, clean checkout, CheckPatch.
func (w *windowWL) checkOp(sess *core.Session, i int, log *spanLog) (out patchOut) {
	repo := w.built.Hist.Repo
	id := w.ids[i]
	opID := log.open("window.op", i, 0, false)
	defer log.close(opID)
	var err error
	log.timed("vcs.get", i, opID, func() { _, err = repo.Get(id) })
	if err != nil {
		out.err = err
		return out
	}
	var kept []jmake.FileDiff
	log.timed("vcs.diff", i, opID, func() { kept, err = relevantDiffs(repo, id) })
	if err != nil {
		out.err = err
		return out
	}
	if len(kept) == 0 {
		out.skipped = true
		return out
	}
	for _, fd := range kept {
		if strings.HasSuffix(fd.NewPath, ".h") {
			out.hFiles++
		} else {
			out.cFiles++
		}
	}
	var tree *fstree.Tree
	log.timed("vcs.checkout", i, opID, func() { tree, err = repo.CheckoutTree(id) })
	if err != nil {
		out.err = err
		return out
	}
	checker := sess.Checker(tree, w.model, core.Options{})
	var rec *trace.Recorder
	if log != nil {
		rec = trace.NewRecorder(trace.KindPatch, w.model.NewClock(), trace.A("commit", id))
		checker.SetTrace(rec)
	}
	out.checkID = log.timed("core.check", i, opID, func() { out.report, err = checker.CheckPatch(id, kept) })
	out.err = err
	out.vspan = rec.Finish()
	return out
}

// pass checks every commit of the slice on sess and returns the outcomes
// in commit order with the pass's timings.
func (w *windowWL) pass(e *env, sess *core.Session, log *spanLog) ([]patchOut, passRecord) {
	outs := make([]patchOut, len(w.ids))
	c0, start := processCPU(), time.Now()
	sched.Map(len(w.ids), sched.Options{Workers: e.p.workers},
		func(i int) patchOut { return w.check(sess, i, log) },
		func(i int, o patchOut) { outs[i] = o })
	rec := passRecord{wall: time.Since(start), cpu: processCPU() - c0}
	for _, p := range outs {
		rec.add(p.lat, p.cpu)
	}
	return outs, rec
}

// judge applies the per-report checks and records failures.
func judge(o *outcome, id string, r *jmake.Report, err error) {
	if err != nil {
		o.fail("%s: %v", id, err)
		return
	}
	if v := safetyViolation(r); v != "" {
		o.fail("safety: %s", v)
	}
}

// passCounts are the pass's deterministic counts: make invocations from
// the reports' duration lists, result-cache hits and misses (the cache
// computes each key exactly once at any worker count), virtual spans.
func passCounts(outs []patchOut, sess *core.Session) map[string]int64 {
	counts := map[string]int64{}
	var mi, mo, spans int64
	for _, p := range outs {
		if p.report != nil {
			mi += int64(len(p.report.MakeIDurations))
			mo += int64(len(p.report.MakeODurations))
		}
		p.vspan.Walk(func(*trace.Span) { spans++ })
	}
	counts["make_i_calls"], counts["make_o_calls"] = mi, mo
	if spans > 0 {
		counts["virtual_spans"] = spans
	}
	if st, ok := sess.ResultCacheStats(); ok {
		counts["ccache_i_hits"], counts["ccache_i_misses"] = int64(st.MakeI.Hits), int64(st.MakeI.Misses)
		counts["ccache_o_hits"], counts["ccache_o_misses"] = int64(st.MakeO.Hits), int64(st.MakeO.Misses)
	}
	return counts
}

func runWindow(e *env) (*outcome, error) {
	o := newOutcome()
	repeats := e.p.setupRepeats
	if e.traced {
		repeats = 1
	}
	w, setupS, err := timeSetup(repeats, func() (*windowWL, error) { return setupWindow(e) })
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS
	o.props["window_commits"] = len(w.ids)
	o.props["files_per_tree"] = w.base.Len()
	if e.traced {
		return o, windowTraced(e, o, w)
	}

	// Passes repeat the same commits on fresh sessions until the budget is
	// spent (at least three, so every operation has a median).
	heap := startHeapSampler(5 * time.Millisecond)
	var first []patchOut
	var firstBytes [][]byte
	var busy time.Duration
	var passes []passRecord
	for busy < e.budget() || len(passes) < minPasses {
		sess, err := w.freshSession()
		if err != nil {
			return nil, err
		}
		runtime.GC() // every pass starts from the same heap
		outs, rec := w.pass(e, sess, nil)
		busy += rec.wall
		passes = append(passes, rec)
		o.attempted += len(outs)
		for i, p := range outs {
			judge(o, w.ids[i], p.report, p.err)
		}
		reps := make([]*jmake.Report, len(outs))
		for i, p := range outs {
			reps[i] = p.report
		}
		if first == nil {
			first, firstBytes = outs, passBytes(reps)
			o.counts = passCounts(outs, sess)
			continue
		}
		sameAsFirst(o, w.ids, firstBytes, reps)
	}
	o.metrics["peak_heap_mb"] = heap.stopMB()
	passFigures(o, passes)
	windowMix(o, first)

	// Outside the timed section: a seeded sample of reports against fresh
	// from-scratch checks.
	var checked []int
	for i, p := range first {
		if p.report != nil {
			checked = append(checked, i)
		}
	}
	picked := sampleIndices(e.seed, len(checked), e.p.sampleChecks)
	compareAll(o, e, len(picked), func(k int) string {
		i := checked[picked[k]]
		return compareFresh(w.built.Hist.Repo, w.ids[i], w.model, reportBytes(first[i].report))
	})
	o.notes["byte_compared"] = min(len(checked), e.p.sampleChecks)
	return o, nil
}

// windowMix records the window's measured input properties: the .c/.h
// mix of the checked files and how many commits the path filter skipped.
func windowMix(o *outcome, outs []patchOut) {
	c, h, skipped := 0, 0, 0
	for _, p := range outs {
		c += p.cFiles
		h += p.hFiles
		if p.skipped {
			skipped++
		}
	}
	o.props["c_files"], o.props["h_files"], o.props["skipped_commits"] = c, h, skipped
	o.props["h_share"] = ratio(float64(h), float64(c+h))
}

// windowTraced makes the traced run: an untraced pass, the same pass
// traced and profiled, then replays of each patch's recorded calls.
func windowTraced(e *env, o *outcome, w *windowWL) error {
	sessA, err := w.freshSession()
	if err != nil {
		return err
	}
	runtime.GC()
	outsA, _ := w.pass(e, sessA, nil)
	countsA := passCounts(outsA, sessA)
	sessA = nil

	sessB, err := core.NewSession(w.base)
	if err != nil {
		return err
	}
	runtime.GC()
	var outsB []patchOut
	var recB passRecord
	before := snapRuntime()
	shares, samples, err := profiled(func() { outsB, recB = w.pass(e, sessB, e.log) })
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
	checked, spans := 0, 0
	reps := make([]*jmake.Report, len(outsB))
	for i := range outsB {
		a, b := outsA[i], outsB[i]
		judge(o, w.ids[i], b.report, b.err)
		sumA += float64(a.lat)
		sumB += float64(b.lat)
		reps[i] = b.report
		if b.report != nil {
			checked++
			b.vspan.Walk(func(*trace.Span) { spans++ })
		}
	}
	reportLayers(o, reps)
	o.counts = passCounts(outsB, sessB)
	windowMix(o, outsB)
	sameWork(o, countsA, o.counts)

	o.metrics["trace.overhead_share"] = ratio(sumB, sumA) - 1
	o.metrics["sched.busy_share"] = ratio(sumB, float64(e.p.workers)*float64(recB.wall))
	o.metrics["trace.spans_per_patch"] = ratio(float64(spans), float64(checked))
	st := e.log.stats()
	o.metrics["vcs.calls"] = ratio(float64(st["vcs.get"].Count+st["vcs.diff"].Count+st["vcs.checkout"].Count), float64(len(outsB)))
	sessionCounters(o, sessB)

	// Replays, in commit order, until the time budget runs out.
	rp, err := newReplayer(w.base, e.log)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(e.budget() / 2)
	replayed, treeFiles := 0, 0
	ops := map[int]bool{}
	for i, b := range outsB {
		if time.Now().After(deadline) {
			break
		}
		if b.report == nil || b.vspan == nil {
			continue
		}
		tree, err := w.built.Hist.Repo.CheckoutTree(w.ids[i])
		if err != nil {
			return err
		}
		treeFiles += tree.Len()
		rp.clone(i, b.checkID, tree)
		rp.span(i, b.checkID, tree, b.vspan)
		replayed++
		ops[i] = true
	}
	layerMetrics(e, o, rp)
	o.metrics["core.self_ms"] = e.log.selfMeanMS("core.check", ops)
	o.metrics["fstree.files"] = ratio(float64(treeFiles), float64(replayed))
	o.notes["replayed_patches"] = replayed
	o.notes["replay_cache_state"] = "replay result and token caches start empty and warm in commit order, like the pass's fresh session"
	zeroLayers(o)
	return nil
}

// sameWork flags drift between the untraced and the traced run of the
// same operations: both must do identical deterministic work (virtual
// spans exist only in the traced one).
func sameWork(o *outcome, untraced, traced map[string]int64) {
	for _, k := range sortedKeys(untraced) {
		if k != "virtual_spans" && traced[k] != untraced[k] {
			o.fail("count drift between untraced and traced run: %s %d vs %d", k, untraced[k], traced[k])
		}
	}
}

// sessionCounters reads the session's exported cache counters.
func sessionCounters(o *outcome, sess *core.Session) {
	o.metrics["kconfig.config_hit_ratio"] = sess.ConfigCacheStats().HitRate()
	o.metrics["cpp.token_hit_ratio"] = sess.TokenCacheStats().HitRate()
	if st, ok := sess.ResultCacheStats(); ok {
		o.metrics["ccache.i_hit_ratio"] = st.MakeI.HitRate()
		o.metrics["ccache.o_hit_ratio"] = st.MakeO.HitRate()
		o.metrics["ccache.stored_mb"] = float64(st.MakeI.BytesStored+st.MakeO.BytesStored) / (1 << 20)
		o.metrics["ccache.served_mb"] = float64(st.MakeI.BytesServed+st.MakeO.BytesServed) / (1 << 20)
	}
}

// layerMetrics turns the span log and replay tallies into the per-layer
// timing metrics.
func layerMetrics(e *env, o *outcome, rp *replayer) {
	st := e.log.stats()
	ms := func(name string) float64 { return st[name].meanMS() }
	o.metrics["vcs.checkout_ms"] = ms("vcs.checkout")
	o.metrics["vcs.diff_ms"] = ms("vcs.diff")
	o.metrics["fstree.clone_ms"] = ms("fstree.clone")
	o.metrics["core.check_ms"] = ms("core.check")
	o.metrics["kconfig.config_ms"] = ms("kconfig.config")
	o.metrics["kconfig.parse_ms"] = ms("kconfig.parse")
	o.metrics["kbuild.reachable_ms"] = ms("kbuild.reachable")
	o.metrics["cpp.preprocess_ms"] = ms("cpp.preprocess")
	o.metrics["cc.compile_ms"] = ms("cc.compile")
	o.metrics["ccache.probe_ms"] = ms("ccache.probe")
	o.metrics["cpp.lines_per_s"] = ratio(float64(rp.lines), rp.preprocess.Seconds())
	o.metrics["cc.bytes_per_s"] = ratio(float64(rp.ccBytes), rp.compile.Seconds())
	o.notes["replay_unresolved_spans"] = rp.unresolved
}
