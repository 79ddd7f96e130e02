// Package eval orchestrates the paper's §V evaluation: generate the
// kernel-shaped tree and its commit history, identify the janitors, run
// JMake over every patch between v4.3 and v4.4 with a worker pool, and
// aggregate the results into each of the paper's tables and figures.
package eval

import (
	"context"
	"fmt"
	"runtime"

	"jmake/internal/commitgen"
	"jmake/internal/core"
	"jmake/internal/fstree"
	"jmake/internal/janitor"
	"jmake/internal/kernelgen"
	"jmake/internal/maintainers"
	"jmake/internal/sched"
	"jmake/internal/trace"
	"jmake/internal/vclock"
	"jmake/internal/vcs"
)

// Params configure a full evaluation run.
type Params struct {
	// Ctx, when non-nil, cancels the patch window: commits not yet handed
	// to a worker when Ctx is done are never checked (their results carry
	// Ctx's error), and in-flight checkers stop at the next stage boundary
	// with canceled partial reports. nil means run to completion — the
	// deterministic default; canceled runs are inherently partial and must
	// not feed reproducible reports.
	Ctx context.Context
	// TreeSeed / HistorySeed / ModelSeed drive the three deterministic
	// generators.
	TreeSeed    int64
	HistorySeed int64
	ModelSeed   uint64
	// TreeScale sizes the kernel tree (1.6 ≈ 1700 drivers' worth of files,
	// enough for the janitor file-spread of Table II).
	TreeScale float64
	// CommitScale sizes the history (1.0 = the paper's 12,946 window
	// commits).
	CommitScale float64
	// Workers bounds parallel patch processing (paper: 25 processes). At
	// most 2*Workers patches are admitted but not yet merged, each holding
	// one tree clone and report in memory.
	Workers int
	// Checker tunes the JMake pipeline.
	Checker core.Options
	// NoResultCache disables the shared compile-result cache (on by
	// default; see internal/ccache). Verdicts and the default JSON report
	// are byte-identical either way — the cache only changes real compute.
	NoResultCache bool
	// CacheDir enables the persistent result-cache tier: warm-start from
	// this directory before the window, persist back after it.
	CacheDir string
	// CacheMaxBytes bounds the persisted cache payload (0 = 64 MiB).
	CacheMaxBytes int64
	// Trace records a virtual-time span tree for every checked patch (see
	// internal/trace). The merged trace is a reproducible artifact —
	// byte-identical at any Workers count and under any cache state — so
	// turning it on never perturbs the run it observes.
	Trace bool
	// JanitorThresholds for the §IV study; zero value uses scaled paper
	// thresholds.
	JanitorThresholds janitor.Thresholds
}

func (p Params) withDefaults() Params {
	if p.TreeScale <= 0 {
		p.TreeScale = 1.6
	}
	if p.CommitScale <= 0 {
		p.CommitScale = 1.0
	}
	if p.Workers <= 0 {
		p.Workers = runtime.NumCPU()
		if p.Workers > 25 {
			p.Workers = 25 // the paper's process count
		}
	}
	if p.JanitorThresholds == (janitor.Thresholds{}) {
		th := janitor.DefaultThresholds()
		// Thresholds scale with history volume so the study discriminates
		// at reduced scales too.
		th.MinPatches = scaleMin(th.MinPatches, p.CommitScale, 3)
		th.MinSubsystems = scaleMin(th.MinSubsystems, p.CommitScale, 4)
		th.MinLists = scaleMin(th.MinLists, p.CommitScale, 2)
		th.MinWindowPatches = scaleMin(th.MinWindowPatches, p.CommitScale, 2)
		p.JanitorThresholds = th
	}
	return p
}

func scaleMin(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// PatchResult is the outcome for one window commit.
type PatchResult struct {
	Commit    string
	Author    string
	IsJanitor bool
	// Skipped marks commits filtered by path rules (Documentation/,
	// scripts/, tools/, or no .c/.h files) — the paper's 2,099.
	Skipped bool
	Report  *core.PatchReport
	Err     error
	// Span is the patch's trace tree (nil unless Params.Trace).
	Span *trace.Span
}

// Run is a completed evaluation.
type Run struct {
	Params   Params
	Tree     *fstree.Tree
	Manifest *kernelgen.Manifest
	Repo     *vcs.Repo
	// Janitors is the §IV study output; JanitorEmails keys patch
	// attribution.
	Janitors      []janitor.AuthorStats
	JanitorEmails map[string]bool
	// Results has one entry per window commit (12,946 at scale 1.0).
	Results []PatchResult
	// Pipeline describes the worker pool's execution of the window, its
	// volatile Runtime part included.
	Pipeline JSONPipeline
	// Canceled counts window commits never checked because Params.Ctx was
	// done first (always 0 on a run-to-completion evaluation).
	Canceled int
	// Trace is the merged session trace (nil unless Params.Trace): one
	// span tree per checked patch, in submission order, cache outcomes
	// stamped.
	Trace *trace.Trace
}

// Execute runs the complete evaluation: substrate generation and janitor
// study (prepare), then the parallel patch window (checkWindow).
func Execute(p Params) (*Run, error) {
	run, ids, err := prepare(p)
	if err != nil {
		return nil, err
	}
	if err := run.checkWindow(ids); err != nil {
		return nil, err
	}
	return run, nil
}

// prepare generates the evaluation substrate — the kernel-shaped tree, its
// commit history, the §IV janitor study — and returns the run shell plus
// the §V-A window patch stream.
func prepare(p Params) (*Run, []string, error) {
	p = p.withDefaults()
	tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: p.TreeSeed, Scale: p.TreeScale})
	if err != nil {
		return nil, nil, fmt.Errorf("eval: generating tree: %w", err)
	}
	hist, err := commitgen.Build(tree, man, commitgen.Params{Seed: p.HistorySeed, Scale: p.CommitScale})
	if err != nil {
		return nil, nil, fmt.Errorf("eval: generating history: %w", err)
	}
	repo := hist.Repo

	// §IV: identify janitors over the whole study period.
	mtext, err := repo.ReadTip("MAINTAINERS")
	if err != nil {
		return nil, nil, fmt.Errorf("eval: %w", err)
	}
	entries, err := maintainers.Parse(mtext)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: %w", err)
	}
	js, err := janitor.IdentifyWorkers(repo, maintainers.NewIndex(entries),
		"v3.0", "v4.3", "v4.4", p.JanitorThresholds, p.Workers)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: %w", err)
	}
	jEmails := janitor.Emails(js)
	// The planted roster is the ground truth for patch attribution even if
	// the scaled study misses some members.
	for _, spec := range hist.Janitors {
		jEmails[spec.Email] = true
	}

	// §V-A: the patch stream.
	ids, err := repo.Between("v4.3", "v4.4", vcs.LogOptions{NoMerges: true, OnlyModify: true})
	if err != nil {
		return nil, nil, fmt.Errorf("eval: %w", err)
	}
	return &Run{
		Params:        p,
		Tree:          tree,
		Manifest:      man,
		Repo:          repo,
		Janitors:      js,
		JanitorEmails: jEmails,
	}, ids, nil
}

// checkWindow fans the window's patches over the worker pool. One Session
// holds the window-invariant state (build metadata, arch index, Kconfig
// valuations, lexed tokens); each patch gets its own Checker so resilience
// state stays patch-local and reports are identical at any worker count.
// Results are merged in submission order with bounded in-flight memory.
func (r *Run) checkWindow(ids []string) error {
	if len(ids) == 0 {
		return fmt.Errorf("eval: empty patch window")
	}
	base, err := r.Repo.CheckoutTree(ids[0])
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	session, err := core.NewSession(base)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	if r.Params.NoResultCache {
		session.SetResultCache(nil)
	} else if r.Params.CacheDir != "" {
		session.ResultCache().Load(r.Params.CacheDir) // best-effort warm start; corrupt = cold
	}
	model := vclock.DefaultModel(r.Params.ModelSeed)
	ctx := r.Params.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	opts := r.Params.Checker
	if r.Params.Ctx != nil && opts.Interrupt == nil {
		// Stop in-flight checkers at their next stage boundary once the
		// window is canceled, instead of letting them run to completion.
		opts.Interrupt = func() bool { return ctx.Err() != nil }
	}

	r.Results = make([]PatchResult, len(ids))
	met := sched.MapCtx(ctx, len(ids),
		sched.Options{Workers: r.Params.Workers},
		func(i int) PatchResult {
			return processOne(r.Repo, session, model, opts, ids[i], r.JanitorEmails, r.Params.Trace)
		},
		func(i int, res PatchResult) {
			r.Results[i] = res
		})
	// Canceled items are exactly the un-dispatched tail; stamp them so a
	// partial run is distinguishable from one whose commits all failed.
	for i := len(ids) - met.Canceled; i < len(ids); i++ {
		r.Results[i] = PatchResult{Commit: ids[i], Err: ctx.Err()}
	}
	r.Pipeline = pipelineSection(met, r.Results, session)
	r.Canceled = met.Canceled
	if r.Params.Trace {
		// r.Results is indexed by submission order, so the merged trace is
		// identical at any worker count; Stamp then classifies cache
		// outcomes from content keys in that same canonical order.
		tr := &trace.Trace{}
		for i := range r.Results {
			if s := r.Results[i].Span; s != nil {
				tr.Spans = append(tr.Spans, s)
			}
		}
		tr.Stamp()
		r.Trace = tr
	}
	if !r.Params.NoResultCache && r.Params.CacheDir != "" {
		if err := session.ResultCache().Save(r.Params.CacheDir, r.Params.CacheMaxBytes); err != nil {
			return fmt.Errorf("eval: persisting result cache: %w", err)
		}
	}
	return nil
}

// processOne checks a single commit, mirroring the paper's per-patch
// pipeline: clean checkout, path filtering, then JMake.
func processOne(repo *vcs.Repo, session *core.Session, model *vclock.Model, opts core.Options, id string, jEmails map[string]bool, traced bool) PatchResult {
	res := PatchResult{Commit: id}
	c, err := repo.Get(id)
	if err != nil {
		res.Err = err
		return res
	}
	res.Author = c.Author.Email
	res.IsJanitor = jEmails[c.Author.Email]

	fds, err := repo.FileDiffs(id)
	if err != nil {
		res.Err = err
		return res
	}
	kept := core.RelevantDiffs(fds)
	if len(kept) == 0 {
		res.Skipped = true
		return res
	}

	tree, err := repo.CheckoutTree(id)
	if err != nil {
		res.Err = err
		return res
	}
	checker := session.Checker(tree, model, opts)
	var rec *trace.Recorder
	if traced {
		// Each patch gets its own virtual clock starting at zero, so the
		// span tree depends only on the patch's own deterministic charges.
		rec = trace.NewRecorder(trace.KindPatch, model.NewClock(), trace.A("commit", id))
		checker.SetTrace(rec)
	}
	report, err := checker.CheckPatch(id, kept)
	if err != nil {
		res.Err = err
		return res
	}
	res.Report = report
	res.Span = rec.Finish()
	return res
}

// RelevantPath is core.RelevantPath, the paper's path filter (§V-A),
// under the name the benchmark's verifier (perfbench/verify.go) calls.
func RelevantPath(p string) bool { return core.RelevantPath(p) }
