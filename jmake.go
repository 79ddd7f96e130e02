// Package jmake is a from-scratch reproduction of JMake (Lawall & Muller,
// DSN 2017): dependable compilation checking for Linux-kernel janitors.
//
// JMake answers one question: after a patch compiles, were all of its
// changed lines actually seen by the compiler? In a highly configurable
// code base any line can be excluded by conditional compilation, so a
// clean build is not evidence that a change was checked. JMake mutates the
// changed lines with tokens that are invalid in C but survive
// preprocessing, selects candidate architectures and configurations by
// heuristics, and verifies that every token reaches a .i file whose
// translation unit also compiles cleanly.
//
// The package exposes three layers:
//
//   - Checking: NewSession/Checker over a source tree, CheckCommit over a
//     repository — the paper's tool (§III).
//   - Substrate generation: GenerateKernel and SynthesizeHistory build the
//     kernel-shaped tree and commit history the evaluation runs against
//     (substituting for the real kernel, see DESIGN.md).
//   - Evaluation: Evaluate reproduces the paper's §V study; the returned
//     Run aggregates every table and figure.
//
// A minimal check of the latest commit:
//
//	tree, man, _ := jmake.GenerateKernel(1, 0.2)
//	hist, _ := jmake.SynthesizeHistory(tree, man, 2, 0.02)
//	ids, _ := hist.Repo.Between("v4.3", "v4.4", jmake.ModifyingNonMerge)
//	report, _ := jmake.CheckCommit(hist.Repo, ids[len(ids)-1], jmake.Options{})
//	fmt.Println(report.Certified())
package jmake

import (
	"fmt"

	"jmake/internal/ccache"
	"jmake/internal/commitgen"
	"jmake/internal/core"
	"jmake/internal/eval"
	"jmake/internal/faultinject"
	"jmake/internal/fstree"
	"jmake/internal/incr"
	"jmake/internal/janitor"
	"jmake/internal/kernelgen"
	"jmake/internal/maintainers"
	"jmake/internal/textdiff"
	"jmake/internal/trace"
	"jmake/internal/vclock"
	"jmake/internal/vcs"
)

// Core checking types (paper §III).
type (
	// Report is the outcome of checking one patch.
	Report = core.PatchReport
	// FileOutcome is the per-file result inside a Report.
	FileOutcome = core.FileOutcome
	// Status classifies a file outcome.
	Status = core.Status
	// Escape pairs an unwitnessed mutation with its diagnosed reason.
	Escape = core.Escape
	// EscapeReason is the Table IV taxonomy.
	EscapeReason = core.EscapeReason
	// Mutation is one inserted @"kind:file:line" token.
	Mutation = core.Mutation
	// MutateResult is the outcome of mutating one file.
	MutateResult = core.MutateResult
	// Options tune the checker (group sizes, header-candidate limits).
	Options = core.Options
	// Session shares window-invariant state across many checks.
	Session = core.Session
	// Checker runs JMake against one source snapshot.
	Checker = core.Checker
	// FaultPlan configures deterministic fault injection (Options.Faults);
	// the zero plan injects nothing.
	FaultPlan = faultinject.Plan
	// FaultEvent is one injected fault recorded in a Report.
	FaultEvent = faultinject.Event
	// ResultCache is the shared compile-result cache: content-addressed
	// .i/.o verdicts keyed by include-closure fingerprints, shared across
	// patches via a Session and optionally persisted across runs.
	ResultCache = ccache.Cache
	// ResultCacheStats snapshots a ResultCache's counters.
	ResultCacheStats = ccache.StatsSet
)

// NewResultCache returns an empty compile-result cache, e.g. to share one
// cache across several Sessions via Session.SetResultCache.
func NewResultCache() *ResultCache { return ccache.New() }

// LoadResultCache returns a compile-result cache warm-started from dir
// (best-effort: a missing or corrupt cache file just yields a cold cache).
// Persist it back with SaveResultCache after checking.
func LoadResultCache(dir string) *ResultCache {
	c := ccache.New()
	c.Load(dir)
	return c
}

// SaveResultCache persists a cache to dir for future LoadResultCache
// calls, evicting least-recently-used entries beyond maxBytes (0 = the
// 64 MiB default).
func SaveResultCache(c *ResultCache, dir string, maxBytes int64) error {
	return c.Save(dir, maxBytes)
}

// Re-exported statuses.
const (
	StatusCertified       = core.StatusCertified
	StatusCommentOnly     = core.StatusCommentOnly
	StatusEscapes         = core.StatusEscapes
	StatusBuildFailed     = core.StatusBuildFailed
	StatusSetupFile       = core.StatusSetupFile
	StatusUnsupportedArch = core.StatusUnsupportedArch
	StatusNoMakefile      = core.StatusNoMakefile
	StatusBudgetExhausted = core.StatusBudgetExhausted
	StatusArchQuarantined = core.StatusArchQuarantined
	StatusStaticDead      = core.StatusStaticDead
	StatusCanceled        = core.StatusCanceled
)

// StaticDisagreement is one static/dynamic cross-check failure recorded in
// a Report when Options.StaticPresence is enabled (any entry indicates a
// bug in the static analysis, not in the patch).
type StaticDisagreement = core.StaticDisagreement

// UniformFaultPlan builds a fault plan applying rate to every fault class
// (transient preprocessor and config failures, truncated .i output,
// mid-run cross-compiler breakage, stalls), keyed by seed.
func UniformFaultPlan(seed uint64, rate float64) FaultPlan {
	return faultinject.Uniform(seed, rate)
}

// Re-exported escape reasons (Table IV).
const (
	EscapeIfdefNotAllyes = core.EscapeIfdefNotAllyes
	EscapeIfdefNeverSet  = core.EscapeIfdefNeverSet
	EscapeIfdefModule    = core.EscapeIfdefModule
	EscapeIfndefOrElse   = core.EscapeIfndefOrElse
	EscapeBothBranches   = core.EscapeBothBranches
	EscapeIfZero         = core.EscapeIfZero
	EscapeUnusedMacro    = core.EscapeUnusedMacro
	EscapeOther          = core.EscapeOther
)

// Substrate types.
type (
	// Tree is an in-memory source tree.
	Tree = fstree.Tree
	// Manifest describes what GenerateKernel produced.
	Manifest = kernelgen.Manifest
	// History is a synthesized repository with its janitor roster.
	History = commitgen.Result
	// Repo is the version-control store.
	Repo = vcs.Repo
	// Commit is one history node.
	Commit = vcs.Commit
	// LogOptions filter history walks.
	LogOptions = vcs.LogOptions
	// JanitorSpec is one Table II roster row.
	JanitorSpec = commitgen.JanitorSpec
	// JanitorStats is one measured Table II row.
	JanitorStats = janitor.AuthorStats
	// JanitorThresholds are the Table I criteria.
	JanitorThresholds = janitor.Thresholds
)

// Evaluation types (paper §V).
type (
	// EvalParams configure a full evaluation run.
	EvalParams = eval.Params
	// Run is a completed evaluation with per-patch results and the
	// aggregations behind every table and figure.
	Run = eval.Run
	// PatchResult is one window commit's outcome.
	PatchResult = eval.PatchResult
)

// FileDiff is one file's unified diff.
type FileDiff = textdiff.FileDiff

// ModifyingNonMerge matches the paper's git-log filters
// (-w --diff-filter=M --no-merges, §V-A).
var ModifyingNonMerge = vcs.LogOptions{NoMerges: true, OnlyModify: true}

// DiffFiles computes the unified diff between two versions of a file,
// reporting false when they are identical.
func DiffFiles(path, oldContent, newContent string) (FileDiff, bool) {
	return textdiff.Diff(path, path, oldContent, newContent)
}

// FormatDiff renders a FileDiff in unified-diff format.
func FormatDiff(fd FileDiff) string { return textdiff.Format(fd) }

// ParsePatch parses unified-diff text (as produced by git show or diff -u)
// into per-file diffs.
func ParsePatch(text string) ([]FileDiff, error) { return textdiff.ParsePatch(text) }

// ApplyPatch applies per-file diffs to a tree in place, returning an error
// if any hunk fails to apply (mirroring the patch(1) tool).
func ApplyPatch(tree *Tree, fds []FileDiff) error {
	for _, fd := range fds {
		old, err := tree.Read(fd.OldPath)
		if err != nil {
			return fmt.Errorf("jmake: %w", err)
		}
		patched, err := textdiff.Apply(old, fd)
		if err != nil {
			return fmt.Errorf("jmake: applying to %s: %w", fd.OldPath, err)
		}
		tree.Write(fd.NewPath, patched)
	}
	return nil
}

// CheckPatchText is the janitor's entry point: given a pre-patch tree and
// unified-diff text, apply the patch and verify that every changed line is
// subjected to the compiler. The tree is not modified; checking happens on
// a patched clone.
func CheckPatchText(tree *Tree, patchText string, opts Options) (*Report, error) {
	fds, err := ParsePatch(patchText)
	if err != nil {
		return nil, fmt.Errorf("jmake: %w", err)
	}
	if len(fds) == 0 {
		return nil, fmt.Errorf("jmake: no file diffs found in patch")
	}
	snapshot := tree.Clone()
	if err := ApplyPatch(snapshot, fds); err != nil {
		return nil, err
	}
	session, err := core.NewSession(snapshot)
	if err != nil {
		return nil, fmt.Errorf("jmake: %w", err)
	}
	checker := session.Checker(snapshot, vclock.DefaultModel(uint64(len(patchText))), opts)
	return checker.CheckPatch("patch", core.RelevantDiffs(fds))
}

// GenerateKernel builds the kernel-shaped source tree: 26 architectures,
// Kconfig and Kbuild hierarchies, subsystem headers, drivers with
// conditional-compilation structure, MAINTAINERS, and build metadata.
// scale 1.0 yields roughly 730 drivers across 32 subsystems; the full
// evaluation uses 1.6 (~1,170 drivers), sized so the Table II janitors'
// file spreads fit.
func GenerateKernel(seed int64, scale float64) (*Tree, *Manifest, error) {
	return kernelgen.Generate(kernelgen.Params{Seed: seed, Scale: scale})
}

// SynthesizeHistory builds the commit history over a generated tree: the
// v3.0→v4.3 background (janitor profiles per Table II) and the v4.3→v4.4
// evaluation window (12,946 modifying commits at scale 1.0, with the
// paper's edit-class mix).
func SynthesizeHistory(tree *Tree, man *Manifest, seed int64, scale float64) (*History, error) {
	return commitgen.Build(tree, man, commitgen.Params{Seed: seed, Scale: scale})
}

// NewSession captures the state shared by checks against snapshots of the
// same tree (architectures, build metadata, configuration cache).
func NewSession(base *Tree) (*Session, error) { return core.NewSession(base) }

// NewChecker builds a checker over one post-patch snapshot. seed feeds the
// deterministic virtual-time model used for reported durations.
func NewChecker(session *Session, tree *Tree, seed uint64, opts Options) *Checker {
	return session.Checker(tree, vclock.DefaultModel(seed), opts)
}

// CheckCommit runs JMake on one commit of a repository: it checks out the
// post-commit snapshot, extracts the patch, and verifies that every
// changed line is subjected to the compiler.
func CheckCommit(repo *Repo, id string, opts Options) (*Report, error) {
	tree, err := repo.CheckoutTree(id)
	if err != nil {
		return nil, fmt.Errorf("jmake: %w", err)
	}
	session, err := core.NewSession(tree)
	if err != nil {
		return nil, fmt.Errorf("jmake: %w", err)
	}
	report, _, _, err := session.CheckCommit(repo, tree, id, opts, false)
	return report, err
}

// CheckCommitWith is CheckCommit reusing a shared Session, so many
// commits share one arch index, configuration cache, token cache and
// compile-result cache. Verdicts are identical to CheckCommit's.
func CheckCommitWith(session *Session, repo *Repo, id string, opts Options) (*Report, error) {
	tree, err := repo.CheckoutTree(id)
	if err != nil {
		return nil, fmt.Errorf("jmake: %w", err)
	}
	report, _, _, err := session.CheckCommit(repo, tree, id, opts, false)
	return report, err
}

// Tracing types (internal/trace): spans are stamped with virtual times
// from the deterministic cost model, so a trace is a reproducible
// artifact, byte-identical at any concurrency and any cache state.
type (
	// TraceSpan is one node of a recorded virtual-time span tree.
	TraceSpan = trace.Span
	// SessionTrace is a merged session trace ready for export (Chrome
	// trace-event JSON, plain-text tree, per-stage summary).
	SessionTrace = trace.Trace
)

// CheckCommitTraced is CheckCommitWith additionally recording the
// patch's virtual-time span tree. The returned span is unstamped;
// assemble one or more of them with MergeTraces before exporting.
func CheckCommitTraced(session *Session, repo *Repo, id string, opts Options) (*Report, *TraceSpan, error) {
	tree, err := repo.CheckoutTree(id)
	if err != nil {
		return nil, nil, fmt.Errorf("jmake: %w", err)
	}
	report, span, _, err := session.CheckCommit(repo, tree, id, opts, true)
	return report, span, err
}

// MergeTraces assembles per-patch span trees — in checking order, which
// must be deterministic for the result to be — into a session trace and
// stamps the deterministic cache outcomes (first occurrence of each
// content key = "compute", repeats = "reuse"). Nil spans are skipped.
func MergeTraces(spans ...*TraceSpan) *SessionTrace {
	t := &trace.Trace{}
	for _, s := range spans {
		if s != nil {
			t.Spans = append(t.Spans, s)
		}
	}
	t.Stamp()
	return t
}

// Mutate inserts mutation tokens for the changed lines of one file,
// following the placement rules of paper §III-B. Exposed for tooling that
// wants the mutation engine without the build pipeline.
func Mutate(path, content string, changedLines []int) MutateResult {
	return core.Mutate(path, content, changedLines)
}

// IdentifyJanitors runs the §IV study over a repository.
func IdentifyJanitors(repo *Repo, maintainersText string, th JanitorThresholds) ([]JanitorStats, error) {
	return IdentifyJanitorsWorkers(repo, maintainersText, th, 1)
}

// IdentifyJanitorsWorkers is IdentifyJanitors with the per-commit tallying
// fanned over workers; the result is identical at any worker count.
func IdentifyJanitorsWorkers(repo *Repo, maintainersText string, th JanitorThresholds, workers int) ([]JanitorStats, error) {
	entries, err := maintainers.Parse(maintainersText)
	if err != nil {
		return nil, fmt.Errorf("jmake: %w", err)
	}
	return janitor.IdentifyWorkers(repo, maintainers.NewIndex(entries), "v3.0", "v4.3", "v4.4", th, workers)
}

// DefaultJanitorThresholds returns Table I's values.
func DefaultJanitorThresholds() JanitorThresholds { return janitor.DefaultThresholds() }

// Annotate renders a checked patch with per-line verdicts: ✓ witnessed by
// the compiler, ✗ escaped (with the diagnosis), · comment-only. This is
// the human-facing form of JMake's answer.
func Annotate(fds []FileDiff, report *Report) string { return core.Annotate(fds, report) }

// CoverageRatio summarizes a report: compiler-witnessed changed lines over
// all compiler-relevant changed lines.
func CoverageRatio(report *Report) (covered, relevant int) {
	return core.CoverageRatio(report)
}

// Evaluate reproduces the paper's §V evaluation end to end and returns the
// run with every table and figure computable from it.
func Evaluate(p EvalParams) (*Run, error) { return eval.Execute(p) }

// Incremental follower types (internal/incr): a long-lived session that
// consumes a commit stream in history order, one commit at a time, and
// re-checks each commit with cost proportional to the diff, emitting
// reports byte-identical to from-scratch checks.
type (
	// Follower is the incremental commit-stream checker.
	Follower = incr.Follower
	// FollowOptions configure a Follower.
	FollowOptions = incr.Options
	// FollowStep is one followed commit's outcome with its cost stats.
	FollowStep = incr.StepResult
	// ReactiveParams configure the reactive benchmark replay.
	ReactiveParams = incr.ReactiveParams
	// ReactiveReport is the reactive section of BENCH_pipeline.json.
	ReactiveReport = incr.ReactiveReport
)

// NewFollower seeds an incremental follower at baseID: one full checkout
// and session build, after which each Step costs proportional to its
// commit's diff.
func NewFollower(repo *Repo, baseID string, opts FollowOptions) (*Follower, error) {
	return incr.NewFollower(repo, baseID, opts)
}

// CheckFollowStream returns the error a follower seeded at baseID would
// refuse ids with, or nil when it would follow them, without seeding one.
func CheckFollowStream(repo *Repo, baseID string, ids []string) error {
	return incr.CheckStream(repo, baseID, ids)
}

// RunReactive replays the evaluation window's commit stream against one
// warm follower and reports per-commit virtual (= cold) vs effective
// cost (cmd/jmake-bench -reactive).
func RunReactive(repo *Repo, p ReactiveParams) (*ReactiveReport, error) {
	return incr.RunReactive(repo, p)
}

// BenchReport is the pipeline benchmark output (cmd/jmake-bench).
type BenchReport = eval.BenchReport

// RunBenchmarks prepares one evaluation substrate and measures window
// throughput at 1/2/4/8 workers plus a cold-then-warm result-cache pair
// against cacheDir (which must start empty).
func RunBenchmarks(p EvalParams, cacheDir string) (*BenchReport, error) {
	return eval.RunBenchmarks(p, cacheDir)
}

// BenchWorkerResult is one worker-count throughput measurement.
type BenchWorkerResult = eval.BenchWorkerResult

// RunWorkerSweep measures window throughput at each worker count over one
// shared substrate — the cheap scaling smoke behind `make bench-scaling`.
func RunWorkerSweep(p EvalParams, workers []int) ([]BenchWorkerResult, error) {
	return eval.RunWorkerSweep(p, workers)
}
