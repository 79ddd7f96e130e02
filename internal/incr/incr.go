package incr

import (
	"context"
	"fmt"

	"jmake/internal/core"
	"jmake/internal/eval"
	"jmake/internal/fstree"
	"jmake/internal/sched"
	"jmake/internal/vcs"
)

// Options configure a Follower.
type Options struct {
	// Checker tunes the per-commit JMake pipeline (same knobs as one-shot
	// checks; byte-identity holds per option set).
	Checker core.Options
	// Workers bounds concurrent checks inside one non-structural batch of
	// Run. Structural commits are barriers. 0 or 1 checks sequentially —
	// the only mode with per-commit effective-cost attribution.
	Workers int
}

// StepResult is one followed commit's outcome.
type StepResult struct {
	Commit string
	// Report is the checker's verdict — byte-identical (under the same
	// JSON rendering) to a from-scratch check of the same commit. A
	// commit with no checker-relevant files yields a zero-plan report,
	// not an error.
	Report *core.PatchReport
	// Err is a per-commit check failure; the follower's tree and session
	// state stay consistent, so the stream can continue past it.
	Err error
	// Files counts checker-relevant files; Touched counts every path the
	// commit changed.
	Files   int
	Touched int
	// Structural marks commits that forced session invalidation.
	Structural bool
	// InvalidatedTUs counts translation units whose transitive inputs the
	// commit changed (reverse dependency index + cache manifests).
	InvalidatedTUs int
	// VirtualSeconds is the report's full recompute price. It is also the
	// cold baseline: a cold check of this commit reports the same total.
	VirtualSeconds float64
	// EffectiveSeconds is VirtualSeconds minus what the warm session's
	// ledgers absorbed during this check. Only measured when the commit
	// was checked sequentially (EffectiveMeasured); concurrent batches
	// interleave ledger writes, so per-commit attribution would lie.
	EffectiveSeconds  float64
	EffectiveMeasured bool
}

// Follower consumes a commit stream with true incremental invalidation:
// one warm session, one live working tree, per-commit cost proportional
// to the diff. Not safe for concurrent use; one goroutine drives it.
type Follower struct {
	repo  *vcs.Repo
	tree  *fstree.Tree
	sess  *core.Session
	index *Index
	// cursor is the commit the tree and session currently reflect.
	cursor string
	opts   Options
}

// NewFollower seeds a follower at baseID: one full checkout, one session
// build, one index scan — the only tree-proportional work the follower
// ever does.
func NewFollower(repo *vcs.Repo, baseID string, opts Options) (*Follower, error) {
	tree, err := repo.CheckoutTree(baseID)
	if err != nil {
		return nil, fmt.Errorf("incr: %w", err)
	}
	sess, err := core.NewSession(tree)
	if err != nil {
		return nil, fmt.Errorf("incr: %w", err)
	}
	return &Follower{
		repo:   repo,
		tree:   tree,
		sess:   sess,
		cursor: baseID,
		opts:   opts,
		index:  NewIndex(tree),
	}, nil
}

// Cursor returns the commit the follower currently reflects.
func (f *Follower) Cursor() string { return f.cursor }

// Session exposes the warm session, e.g. for ledger inspection in tests.
func (f *Follower) Session() *core.Session { return f.sess }

// savedSeconds snapshots every warmth ledger the session carries: the
// config and set-up ledgers plus the result cache's saved-virtual total.
func (f *Follower) savedSeconds() float64 {
	return f.sess.SavedEffective().Seconds()
}

// advanceOne applies commit cid to the working tree, writing the
// repository's own file versions, and returns its changed paths. O(diff),
// never O(tree).
func (f *Follower) advanceOne(cid string) ([]string, error) {
	c, err := f.repo.Apply(f.tree, cid)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(c.Changes))
	for _, ch := range c.Changes {
		paths = append(paths, ch.Path)
	}
	return paths, nil
}

// sequenceTo lists every commit in (cursor, id], oldest first. The stream
// the caller checks may skip merges and empty diffs, but the follower must
// apply all of them to keep tree and session in sync. The cursor is always
// a commit of the repository, so an error or an empty range means id is
// unknown or not after it.
func (f *Follower) sequenceTo(id string) ([]string, error) {
	seq, err := f.repo.Range(f.cursor, id)
	if err != nil || len(seq) == 0 {
		return nil, fmt.Errorf("incr: commit %s is not after follower cursor %s", id, f.cursor)
	}
	return seq, nil
}

// Step advances the follower through every commit up to and including id
// and checks id, returning its result. Intermediate commits (merges,
// empty diffs, anything the caller's stream filtered out) are applied and
// refreshed but not checked.
func (f *Follower) Step(id string) (StepResult, error) {
	seq, err := f.sequenceTo(id)
	if err != nil {
		return StepResult{Commit: id, Err: err}, err
	}
	var res StepResult
	for _, cid := range seq {
		if res, err = f.advance(cid, cid == id); err != nil {
			break
		}
	}
	return res, res.Err
}

// advance applies commit cid and, when check is true, checks it over the
// live tree with per-commit effective-cost attribution. The error is the
// apply's; a check failure is in the result's Err.
func (f *Follower) advance(cid string, check bool) (StepResult, error) {
	res, err := f.apply(cid, check)
	if check && err == nil {
		f.check(&res, f.tree, true)
	}
	return res, err
}

// apply advances tree, index and session past one commit. When stats is
// true it also prices the commit's blast radius (done before the index
// update, so dependents reflect the edges the commit found in place).
func (f *Follower) apply(cid string, stats bool) (StepResult, error) {
	paths, err := f.advanceOne(cid)
	if err != nil {
		return StepResult{Commit: cid, Err: err}, err
	}
	res := StepResult{
		Commit:     cid,
		Touched:    len(paths),
		Structural: core.Structural(paths),
	}
	if stats {
		res.InvalidatedTUs = len(f.index.Dependents(f.tree, f.sess.ResultCache(), paths))
	}
	f.index.Update(f.tree, paths)
	f.cursor = cid
	if _, err := f.sess.Refresh(f.tree, paths); err != nil {
		res.Err = err
		return res, err
	}
	return res, nil
}

// check runs the one-shot commit check (eval.CheckCommit) of res.Commit
// over snapshot with the warm session. measured enables per-commit
// effective-cost attribution via ledger deltas (sequential callers only).
func (f *Follower) check(res *StepResult, snapshot *fstree.Tree, measured bool) {
	before := 0.0
	if measured {
		before = f.savedSeconds()
	}
	report, _, files, err := eval.CheckCommit(f.sess, f.repo, snapshot, res.Commit, f.opts.Checker, false)
	res.Files = files
	if err != nil {
		res.Err = err
		return
	}
	res.Report = report
	res.VirtualSeconds = report.Total.Seconds()
	if measured {
		res.EffectiveMeasured = true
		res.EffectiveSeconds = res.VirtualSeconds - (f.savedSeconds() - before)
		if res.EffectiveSeconds < 0 {
			res.EffectiveSeconds = 0
		}
	}
}

// Run follows a stream of commit IDs (each must be after the previous and
// after the cursor), emitting one StepResult per requested commit in
// order. emit returning false stops the stream early. With Workers > 1,
// runs of non-structural commits are checked concurrently over per-commit
// tree snapshots — reports are worker-count- and warmth-invariant, so the
// emitted bytes match the sequential stream; only per-commit effective
// attribution is lost (EffectiveMeasured false). Structural commits are
// barriers: the pending batch drains before the session refreshes.
func (f *Follower) Run(ids []string, emit func(StepResult) bool) error {
	if len(ids) == 0 {
		return nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	seq, err := f.sequenceTo(ids[len(ids)-1])
	if err != nil {
		return err
	}
	seqSet := make(map[string]bool, len(seq))
	for _, cid := range seq {
		seqSet[cid] = true
	}
	for _, id := range ids {
		if !seqSet[id] {
			return fmt.Errorf("incr: commit %s is not after follower cursor %s (or out of order)", id, f.cursor)
		}
	}

	sequential := f.opts.Workers <= 1
	type pending struct {
		res  StepResult
		snap *fstree.Tree
	}
	var batch []pending
	stopped := false
	flush := func() {
		if len(batch) == 0 || stopped {
			batch = nil
			return
		}
		sched.MapCtx(context.Background(), len(batch),
			sched.Options{Workers: f.opts.Workers},
			func(i int) StepResult {
				r := batch[i].res
				f.check(&r, batch[i].snap, false)
				return r
			},
			func(i int, r StepResult) {
				if !stopped && !emit(r) {
					stopped = true
				}
			})
		batch = nil
	}

	for _, cid := range seq {
		if stopped {
			break
		}
		checkIt := want[cid]
		if sequential {
			res, err := f.advance(cid, checkIt)
			switch {
			case checkIt && !emit(res):
				return nil
			case !checkIt && err != nil:
				return err
			}
			continue
		}
		// Batched mode: structural commits drain in-flight checks before
		// the session mutates under them.
		if core.Structural(commitPaths(f.repo, cid)) {
			flush()
		}
		res, err := f.apply(cid, checkIt)
		if err != nil && !checkIt {
			return err
		}
		if checkIt {
			if err != nil {
				flush()
				if !emit(res) {
					return nil
				}
				continue
			}
			batch = append(batch, pending{res: res, snap: f.tree.Clone()})
		}
	}
	flush()
	return nil
}

// commitPaths lists a commit's changed paths without applying it.
func commitPaths(repo *vcs.Repo, cid string) []string {
	c, err := repo.Get(cid)
	if err != nil {
		return nil
	}
	out := make([]string, 0, len(c.Changes))
	for _, ch := range c.Changes {
		out = append(out, ch.Path)
	}
	return out
}
