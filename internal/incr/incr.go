package incr

import (
	"fmt"

	"jmake/internal/core"
	"jmake/internal/fstree"
	"jmake/internal/vcs"
)

// Options configure a Follower.
type Options struct {
	// Checker tunes the per-commit JMake pipeline (same knobs as one-shot
	// checks; byte-identity holds per option set).
	Checker core.Options
}

// StepResult is one followed commit's outcome.
type StepResult struct {
	Commit string
	// Report is the checker's verdict — byte-identical (under the same
	// JSON rendering) to a from-scratch check of the same commit. A
	// commit with no checker-relevant files yields a zero-plan report,
	// not an error.
	Report *core.PatchReport
	// Err is a per-commit failure: the commit's session refresh or its
	// check. Report is nil when Err is set. The follower's tree and cursor
	// still reflect the commit, so the stream can continue past it.
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
	// ledgers absorbed during this check.
	EffectiveSeconds float64
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

// Session exposes the warm session, e.g. for ledger inspection in tests.
func (f *Follower) Session() *core.Session { return f.sess }

// Serves reports whether Run would accept ids from the current cursor.
func (f *Follower) Serves(ids []string) bool {
	return CheckStream(f.repo, f.cursor, ids) == nil
}

// CheckStream returns the error Run would refuse ids with from a follower
// whose cursor is base, or nil when it would follow them. A caller can
// check a stream before paying for a follower to seed at base.
func CheckStream(repo *vcs.Repo, base string, ids []string) error {
	_, err := plan(repo, base, ids)
	return err
}

// plan returns the commits a follower whose cursor is cursor applies to
// serve ids: every commit after the cursor up to the last ID, oldest
// first. The stream the caller checks may skip merges and empty diffs,
// but the follower applies all of them to keep tree and session in sync.
// The commits to check are ids themselves, which must lie in that range
// in strictly increasing history order; any other stream is refused
// before anything is applied.
func plan(repo *vcs.Repo, cursor string, ids []string) ([]string, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	last := ids[len(ids)-1]
	seq, err := repo.Range(cursor, last)
	if err != nil || len(seq) == 0 {
		return nil, fmt.Errorf("incr: commit %s is not after follower cursor %s", last, cursor)
	}
	next := 0
	for _, cid := range seq {
		if cid == ids[next] {
			if next++; next == len(ids) {
				return seq, nil
			}
		}
	}
	prev := cursor
	if next > 0 {
		prev = ids[next-1]
	}
	return nil, fmt.Errorf("incr: commit %s does not come after %s in history", ids[next], prev)
}

// advance moves the follower past commit cid, writing the repository's
// own file versions into the live tree (O(diff), never O(tree)), and
// checks cid over that tree when check is true. A checked commit's blast
// radius is priced before the index update, so dependents reflect the
// edges the commit found in place; its effective cost is the report total
// minus what the session's ledgers saved during the check. A failed
// refresh or check leaves the result's Err set and no report.
func (f *Follower) advance(cid string, check bool) StepResult {
	res := StepResult{Commit: cid}
	c, err := f.repo.Apply(f.tree, cid)
	if err != nil {
		res.Err = err
		return res
	}
	paths := make([]string, 0, len(c.Changes))
	for _, ch := range c.Changes {
		paths = append(paths, ch.Path)
	}
	res.Touched = len(paths)
	res.Structural = core.Structural(paths)
	if check {
		res.InvalidatedTUs = len(f.index.Dependents(f.tree, f.sess.ResultCache(), paths))
	}
	f.index.Update(f.tree, paths)
	f.cursor = cid
	if _, err := f.sess.Refresh(f.tree, paths); err != nil {
		res.Err = err
		return res
	}
	if !check {
		return res
	}
	before := f.sess.SavedEffective().Seconds()
	report, _, files, err := f.sess.CheckCommit(f.repo, f.tree, cid, f.opts.Checker, false)
	res.Files = files
	if err != nil {
		res.Err = err
		return res
	}
	res.Report = report
	res.VirtualSeconds = report.Total.Seconds()
	res.EffectiveSeconds = max(0, res.VirtualSeconds-(f.sess.SavedEffective().Seconds()-before))
	return res
}

// Step advances the follower through every commit up to and including id
// and checks id, returning its result. Intermediate commits (merges,
// empty diffs, anything the caller's stream filtered out) are applied and
// refreshed but not checked; if one fails to refresh, Step stops there
// and returns that commit's result.
func (f *Follower) Step(id string) (StepResult, error) {
	seq, err := plan(f.repo, f.cursor, []string{id})
	if err != nil {
		return StepResult{Commit: id, Err: err}, err
	}
	var res StepResult
	for _, cid := range seq {
		if res = f.advance(cid, cid == id); res.Err != nil {
			break
		}
	}
	return res, res.Err
}

// Run follows a stream of commit IDs, each after the previous one and the
// first after the cursor, emitting one StepResult per requested commit in
// order. It checks them as Step does, one at a time over the live tree; a
// per-commit failure is emitted in its result's Err. Run returns an error
// without applying anything when the stream is out of order or not after
// the cursor, and stops with an error when an intermediate commit fails to
// refresh. emit returning false stops the stream early.
func (f *Follower) Run(ids []string, emit func(StepResult) bool) error {
	seq, err := plan(f.repo, f.cursor, ids)
	if err != nil {
		return err
	}
	next := 0
	for _, cid := range seq {
		checked := next < len(ids) && cid == ids[next]
		res := f.advance(cid, checked)
		switch {
		case checked:
			next++
			if !emit(res) {
				return nil
			}
		case res.Err != nil:
			return res.Err
		}
	}
	return nil
}
