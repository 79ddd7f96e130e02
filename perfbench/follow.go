package main

import (
	"runtime"
	"time"

	"jmake"
	"jmake/internal/cliopts"
	"jmake/internal/core"
	"jmake/internal/fstree"
	"jmake/internal/incr"
	"jmake/internal/trace"
	"jmake/internal/vcs"
)

// follow is `jmake -follow`'s default: one incr.Follower seeded at the
// window base steps through consecutive window commits on one goroutine.
// It is the only workload that writes session state (tree advance, index
// update, Session.Refresh on structural commits), and it skips vcs
// checkout.
type followWL struct {
	built *cliopts.Built
	ids   []string // window commits after the seed commit
	f     *incr.Follower
}

func setupFollow(e *env) (*followWL, error) {
	b, err := e.p.workspace(e.seed).Build()
	if err != nil {
		return nil, err
	}
	f, err := incr.NewFollower(b.Hist.Repo, b.WindowIDs[0], incr.Options{})
	if err != nil {
		return nil, err
	}
	return &followWL{built: b, ids: b.WindowIDs[1:], f: f}, nil
}

type stepOut struct {
	res      incr.StepResult
	lat, cpu time.Duration
	err      error
}

// steps drives f through the first n window commits and returns the
// outcomes with the pass's timings.
func (w *followWL) steps(f *incr.Follower, n int, log *spanLog) ([]stepOut, passRecord) {
	var outs []stepOut
	c0, start := processCPU(), time.Now()
	for i, id := range w.ids[:n] {
		var so stepOut
		so.lat, so.cpu = onCPU(func() {
			log.timed("incr.step", i, 0, func() { so.res, so.err = f.Step(id) })
		})
		outs = append(outs, so)
	}
	rec := passRecord{wall: time.Since(start), cpu: processCPU() - c0}
	for _, so := range outs {
		rec.add(so.lat, so.cpu)
	}
	return outs, rec
}

func stepCounts(outs []stepOut) map[string]int64 {
	c := map[string]int64{}
	for _, s := range outs {
		c["invalidated_tus"] += int64(s.res.InvalidatedTUs)
		if s.res.Structural {
			c["structural_steps"]++
		}
		if r := s.res.Report; r != nil {
			c["make_i_calls"] += int64(len(r.MakeIDurations))
			c["make_o_calls"] += int64(len(r.MakeODurations))
		}
	}
	return c
}

func runFollow(e *env) (*outcome, error) {
	o := newOutcome()
	repeats := e.p.setupRepeats
	if e.traced {
		repeats = 1
	}
	w, setupS, err := timeSetup(repeats, func() (*followWL, error) { return setupFollow(e) })
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS
	if e.traced {
		return o, followTraced(e, o, w)
	}

	// Passes re-seed a follower (untimed) and step the same commits until
	// the budget is spent (at least three, so every step has a median).
	heap := startHeapSampler(5 * time.Millisecond)
	repo := w.built.Hist.Repo
	n := min(e.p.followSteps, len(w.ids))
	var first []stepOut
	var firstBytes [][]byte
	var busy time.Duration
	var passes []passRecord
	for busy < e.budget() || len(passes) < minPasses {
		f := w.f
		if f == nil {
			if f, err = incr.NewFollower(repo, w.built.WindowIDs[0], incr.Options{}); err != nil {
				return nil, err
			}
		}
		w.f = nil
		runtime.GC() // every pass starts from the same heap
		outs, rec := w.steps(f, n, nil)
		busy += rec.wall
		passes = append(passes, rec)
		o.attempted += len(outs)
		for i, s := range outs {
			judge(o, w.ids[i], s.res.Report, s.err)
		}
		reps := make([]*jmake.Report, len(outs))
		for i, s := range outs {
			reps[i] = s.res.Report
		}
		if first == nil {
			first, firstBytes = outs, passBytes(reps)
			continue
		}
		sameAsFirst(o, w.ids, firstBytes, reps)
	}
	o.metrics["peak_heap_mb"] = heap.stopMB()
	passFigures(o, passes)
	structural := 0
	for _, s := range first {
		if s.res.Structural {
			structural++
		}
	}
	o.props["steps_per_pass"] = n
	o.props["structural_share"] = ratio(float64(structural), float64(n))
	o.props["files_per_tree"] = w.built.Tree.Len()
	o.counts = stepCounts(first)

	// Outside the timed section: every report of the first pass against a
	// fresh check (later passes step the same commits).
	compareAll(o, e, len(first), func(i int) string {
		if first[i].res.Report == nil {
			return ""
		}
		id := w.ids[i]
		return compareFresh(repo, id, commitModel(id), firstBytes[i])
	})
	o.notes["byte_compared"] = len(first)
	return o, nil
}

// followTraced runs a fixed step list untraced, then traced on a fresh
// follower, then replays each step's calls on a benchmark-held tree,
// index and session that advance through the same commits.
func followTraced(e *env, o *outcome, w *followWL) error {
	n := min(e.p.followSteps, len(w.ids))
	runtime.GC()
	outsA, _ := w.steps(w.f, n, nil)
	repo := w.built.Hist.Repo
	fB, err := incr.NewFollower(repo, w.built.WindowIDs[0], incr.Options{})
	if err != nil {
		return err
	}
	w.f = nil
	runtime.GC()
	var outsB []stepOut
	before := snapRuntime()
	shares, samples, err := profiled(func() { outsB, _ = w.steps(fB, n, e.log) })
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
	structural, tus := 0, 0
	reps := make([]*jmake.Report, len(outsB))
	for i, s := range outsB {
		judge(o, w.ids[i], s.res.Report, s.err)
		sumA += float64(outsA[i].lat)
		sumB += float64(s.lat)
		if s.res.Structural {
			structural++
		}
		tus += s.res.InvalidatedTUs
		reps[i] = s.res.Report
	}
	reportLayers(o, reps)
	steps := float64(len(outsB))
	o.counts = stepCounts(outsB)
	sameWork(o, stepCounts(outsA), o.counts)
	o.metrics["trace.overhead_share"] = ratio(sumB, sumA) - 1
	o.metrics["incr.structural_share"] = ratio(float64(structural), steps)
	o.props["structural_share"] = o.metrics["incr.structural_share"]
	o.metrics["incr.invalidated_tus"] = ratio(float64(tus), steps)
	sessionCounters(o, fB.Session())

	// Replays on state the benchmark holds, advanced commit by commit the
	// way the follower advances its own.
	tree, err := repo.CheckoutTree(w.built.WindowIDs[0])
	if err != nil {
		return err
	}
	ix := incr.NewIndex(tree)
	sess, err := core.NewSession(tree)
	if err != nil {
		return err
	}
	sess.EnableWarm()
	rp, err := newReplayer(tree, e.log)
	if err != nil {
		return err
	}
	cache := fB.Session().ResultCache()
	cursor := w.built.WindowIDs[0]
	deadline := time.Now().Add(e.budget() / 2)
	replayed, vcsCalls, spans, treeFiles := 0, 0, 0, 0
	for i, s := range outsB {
		if time.Now().After(deadline) {
			break
		}
		id := w.ids[i]
		seq, err := repo.Since(cursor)
		if err != nil {
			return err
		}
		vcsCalls++
		for _, cid := range seq {
			c, err := repo.Get(cid)
			if err != nil {
				return err
			}
			vcsCalls++
			paths := advance(tree, repo, c)
			e.log.replay("incr.index", i, 0, func() {
				ix.Dependents(tree, sess.ResultCache(), paths)
				ix.Update(tree, paths)
			})
			e.log.replay("ccache.dependents", i, 0, func() { cache.Dependents(paths) })
			if _, err := sess.Refresh(tree, paths); err != nil {
				return err
			}
			if cid == id {
				break
			}
		}
		cursor = id
		var kept []jmake.FileDiff
		e.log.replay("vcs.diff", i, 0, func() { kept, err = relevantDiffs(repo, id) })
		vcsCalls++
		if err != nil {
			return err
		}
		if s.res.Report == nil {
			continue
		}
		model := commitModel(id)
		checker := sess.Checker(tree, model, core.Options{})
		rec := trace.NewRecorder(trace.KindPatch, model.NewClock(), trace.A("commit", id))
		checker.SetTrace(rec)
		checkID := e.log.replay("core.check", i, 0, func() { _, err = checker.CheckPatch(id, kept) })
		if err != nil {
			return err
		}
		vspan := rec.Finish()
		vspan.Walk(func(*trace.Span) { spans++ })
		treeFiles += tree.Len()
		rp.clone(i, checkID, tree)
		rp.span(i, checkID, tree, vspan)
		replayed++
	}
	layerMetrics(e, o, rp)
	o.metrics["core.self_ms"] = e.log.selfMeanMS("core.check", nil)
	o.metrics["incr.index_ms"] = e.log.stats()["incr.index"].meanMS()
	o.metrics["ccache.dependents_ms"] = e.log.stats()["ccache.dependents"].meanMS()
	o.metrics["vcs.calls"] = ratio(float64(vcsCalls), float64(replayed))
	o.metrics["trace.spans_per_patch"] = ratio(float64(spans), float64(replayed))
	o.metrics["fstree.files"] = ratio(float64(treeFiles), float64(replayed))
	o.notes["replayed_steps"] = replayed
	o.notes["replay_cache_state"] = "core.check and its replays run on a benchmark-held warm session advanced through the same commits; ccache.dependents queries the traced follower's final cache"
	zeroLayers(o)
	return nil
}

// advance applies one commit's changes to tree, as the follower does, and
// returns the changed paths.
func advance(tree *fstree.Tree, repo *vcs.Repo, c *vcs.Commit) []string {
	paths := make([]string, 0, len(c.Changes))
	for _, ch := range c.Changes {
		paths = append(paths, ch.Path)
		if ch.New == "" {
			_ = tree.Remove(ch.Path)
			continue
		}
		tree.Write(ch.Path, repo.Blob(ch.New))
	}
	return paths
}
