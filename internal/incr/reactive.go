package incr

import (
	"fmt"

	"jmake/internal/core"
	"jmake/internal/vcs"
)

// ReactiveCommit is one replayed commit of a reactive benchmark stream.
type ReactiveCommit struct {
	Commit string `json:"commit"`
	// Files counts the commit's checker-relevant files; Touched counts
	// every path the commit changed.
	Files   int `json:"files"`
	Touched int `json:"touched"`
	// Structural marks commits whose paths forced session invalidation
	// (Kbuild metadata, arch/, Kconfig, Makefiles).
	Structural bool `json:"structural"`
	// InvalidatedTUs counts translation units whose transitive inputs the
	// commit changed, per the reverse dependency index.
	InvalidatedTUs int `json:"invalidated_tus"`
	// VirtualSeconds is the report's full recompute price — byte-identical
	// to a cold check, so it doubles as the cold-cost baseline.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// EffectiveSeconds is the honest warm cost: VirtualSeconds minus what
	// the session's warmth ledgers absorbed during this commit.
	EffectiveSeconds float64 `json:"effective_seconds"`
	// EffectiveRatio is EffectiveSeconds / VirtualSeconds (1 when the
	// virtual cost is zero).
	EffectiveRatio float64 `json:"effective_ratio"`
}

// ReactiveReport is the `reactive` section of BENCH_pipeline.json: a
// follower replaying a commit stream against one warm session, showing
// per-commit cost proportional to the diff rather than the tree.
type ReactiveReport struct {
	Commits               int     `json:"commits"`
	TotalVirtualSeconds   float64 `json:"total_virtual_seconds"`
	TotalEffectiveSeconds float64 `json:"total_effective_seconds"`
	// SmallCommits counts the gate population: non-structural commits
	// touching at most two relevant files, excluding the warm-up prefix;
	// SmallCommitMeanRatio is their mean effective ratio — the number the
	// <30% acceptance gate checks.
	SmallCommits         int              `json:"small_commits"`
	SmallCommitMeanRatio float64          `json:"small_commit_mean_ratio"`
	PerCommit            []ReactiveCommit `json:"per_commit"`
}

// ReactiveParams configure a reactive benchmark replay.
type ReactiveParams struct {
	// Commits caps how many window commits are replayed after the seed
	// (0 = the whole window).
	Commits int
	// Warmup excludes the first N checked commits from the small-commit
	// gate population: the very first commits pay the session's one-time
	// set-up and config valuations, which is the point — but the steady
	// state is what the <30% gate measures. Default 3.
	Warmup int
	// Checker tunes the per-commit pipeline.
	Checker core.Options
}

// smallCommitMaxFiles bounds the gate population: commits touching at
// most this many relevant files, the "small diff" of the acceptance
// criterion.
const smallCommitMaxFiles = 2

// RunReactive replays a commit stream against one warm follower and
// reports per-commit virtual (= cold) vs effective cost. The stream is
// the evaluation window (v4.3..v4.4, modifying non-merges), seeded at the
// first window commit like the evaluation itself.
func RunReactive(repo *vcs.Repo, p ReactiveParams) (*ReactiveReport, error) {
	ids, err := repo.Between("v4.3", "v4.4", vcs.LogOptions{NoMerges: true, OnlyModify: true})
	if err != nil {
		return nil, fmt.Errorf("incr: %w", err)
	}
	if len(ids) < 2 {
		return nil, fmt.Errorf("incr: window too small for a reactive replay (%d commits)", len(ids))
	}
	stream := ids[1:]
	if p.Commits > 0 && len(stream) > p.Commits {
		stream = stream[:p.Commits]
	}
	warmup := p.Warmup
	if warmup == 0 {
		warmup = 3
	}

	f, err := NewFollower(repo, ids[0], Options{Checker: p.Checker})
	if err != nil {
		return nil, err
	}

	rep := &ReactiveReport{}
	var ratioSum float64
	checked := 0
	runErr := f.Run(stream, func(r StepResult) bool {
		rc := ReactiveCommit{
			Commit:           r.Commit,
			Files:            r.Files,
			Touched:          r.Touched,
			Structural:       r.Structural,
			InvalidatedTUs:   r.InvalidatedTUs,
			VirtualSeconds:   r.VirtualSeconds,
			EffectiveSeconds: r.EffectiveSeconds,
		}
		if r.VirtualSeconds > 0 {
			rc.EffectiveRatio = r.EffectiveSeconds / r.VirtualSeconds
		} else {
			rc.EffectiveRatio = 1
		}
		rep.PerCommit = append(rep.PerCommit, rc)
		rep.Commits++
		rep.TotalVirtualSeconds += r.VirtualSeconds
		rep.TotalEffectiveSeconds += r.EffectiveSeconds
		checked++
		if checked > warmup && !r.Structural &&
			r.Files > 0 && r.Files <= smallCommitMaxFiles && r.VirtualSeconds > 0 {
			rep.SmallCommits++
			ratioSum += rc.EffectiveRatio
		}
		return true
	})
	if runErr != nil {
		return nil, runErr
	}
	if rep.SmallCommits > 0 {
		rep.SmallCommitMeanRatio = ratioSum / float64(rep.SmallCommits)
	}
	return rep, nil
}
