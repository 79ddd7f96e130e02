package core

import (
	"time"

	"jmake/internal/faultinject"
)

// FileKind distinguishes the two processed file types.
type FileKind int

// File kinds.
const (
	CFile FileKind = iota + 1
	HFile
)

func (k FileKind) String() string {
	if k == HFile {
		return ".h"
	}
	return ".c"
}

// Status is the per-file outcome of a JMake run.
type Status int

// File statuses.
const (
	// StatusCertified: every changed line was subjected to the compiler in
	// at least one successful compilation.
	StatusCertified Status = iota + 1
	// StatusCommentOnly: all changed lines are comments; nothing to check.
	StatusCommentOnly
	// StatusEscapes: some compilation succeeded without error, but one or
	// more changed lines were never seen by the compiler — the insidious
	// case JMake exists to detect.
	StatusEscapes
	// StatusBuildFailed: no tried configuration compiled the file (or, for
	// a header, no candidate .c file worked).
	StatusBuildFailed
	// StatusSetupFile: the file takes part in the build's own set-up
	// compilation and cannot be mutated (paper §V-D).
	StatusSetupFile
	// StatusUnsupportedArch: the file belongs to an architecture without a
	// working cross-compiler.
	StatusUnsupportedArch
	// StatusNoMakefile: no Makefile governs the file.
	StatusNoMakefile
	// StatusBudgetExhausted: the per-patch virtual-time budget ran out
	// before the file's mutations could all be witnessed. Reported
	// honestly instead of masquerading as a build failure (and never,
	// ever, as certification).
	StatusBudgetExhausted
	// StatusArchQuarantined: the architecture circuit breaker quarantined
	// every architecture that could have compiled the file after repeated
	// non-permanent failures.
	StatusArchQuarantined
	// StatusStaticDead: every unwitnessed changed line sits under a
	// presence condition that is unsatisfiable for every candidate
	// architecture — no configuration whatsoever can show it to the
	// compiler, so no compile was issued for it (Options.StaticPresence).
	StatusStaticDead
	// StatusCanceled: the caller's Options.Interrupt fired (a service
	// deadline expired, a client went away) before the file's mutations
	// could all be witnessed. Like StatusBudgetExhausted it reports the
	// partial truth honestly — never escapes the checker did not diagnose,
	// never certification it did not earn.
	StatusCanceled
)

func (s Status) String() string {
	switch s {
	case StatusCertified:
		return "certified"
	case StatusCommentOnly:
		return "comment-only"
	case StatusEscapes:
		return "escapes"
	case StatusBuildFailed:
		return "build-failed"
	case StatusSetupFile:
		return "setup-file"
	case StatusUnsupportedArch:
		return "unsupported-arch"
	case StatusNoMakefile:
		return "no-makefile"
	case StatusBudgetExhausted:
		return "budget-exhausted"
	case StatusArchQuarantined:
		return "arch-quarantined"
	case StatusStaticDead:
		return "static-dead"
	case StatusCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// EscapeReason classifies why a changed line escaped the compiler,
// reproducing Table IV mechanically.
type EscapeReason int

// Escape reasons (Table IV rows).
const (
	// EscapeIfdefNotAllyes: under #ifdef of a variable that allyesconfig
	// does not set (declared, but its dependencies forbid y).
	EscapeIfdefNotAllyes EscapeReason = iota + 1
	// EscapeIfdefNeverSet: under #ifdef of a variable never declared in any
	// Kconfig file.
	EscapeIfdefNeverSet
	// EscapeIfdefModule: under #ifdef MODULE; allyesconfig builds nothing
	// modular, so the region is skipped (allmodconfig would cover it).
	EscapeIfdefModule
	// EscapeIfndefOrElse: under #ifndef, or under the #else of a satisfied
	// #ifdef — allyesconfig sets variables to yes, not no (paper §VII).
	EscapeIfndefOrElse
	// EscapeBothBranches: the patch changes both a conditional branch and
	// its #else; no single configuration can see both.
	EscapeBothBranches
	// EscapeIfZero: under #if 0.
	EscapeIfZero
	// EscapeUnusedMacro: inside a macro definition that no compiled code
	// expands.
	EscapeUnusedMacro
	// EscapeOther: none of the above (deep conditional interactions).
	EscapeOther
)

func (r EscapeReason) String() string {
	switch r {
	case EscapeIfdefNotAllyes:
		return "ifdef variable not set by allyesconfig"
	case EscapeIfdefNeverSet:
		return "ifdef variable never set in the kernel"
	case EscapeIfdefModule:
		return "ifdef MODULE"
	case EscapeIfndefOrElse:
		return "ifndef or else"
	case EscapeBothBranches:
		return "both ifdef and else"
	case EscapeIfZero:
		return "if 0"
	case EscapeUnusedMacro:
		return "unused macro"
	default:
		return "other"
	}
}

// Escape pairs an uncovered mutation with its diagnosed reason.
type Escape struct {
	Mutation Mutation
	Reason   EscapeReason
}

// FileOutcome is the per-file result of a JMake run.
type FileOutcome struct {
	Path   string
	Kind   FileKind
	Status Status

	// Mutations is the number of mutations inserted; FoundMutations how
	// many were witnessed in a successfully compiled .i.
	Mutations      int
	FoundMutations int

	// UsedArches lists architectures whose compilation both succeeded and
	// reduced the set of unwitnessed mutations, in the order tried.
	UsedArches []string
	// NeededBeyondHost is true when the host architecture alone was not
	// sufficient but another architecture helped.
	NeededBeyondHost bool
	// UsedDefconfig is true when a configs/ defconfig (not allyesconfig)
	// contributed coverage.
	UsedDefconfig bool
	// UsedAllMod is true when allmodconfig contributed coverage (only with
	// Options.TryAllModConfig).
	UsedAllMod bool
	// UsedCoverageConfig is true when a synthesized coverage configuration
	// contributed (only with Options.CoverageConfigs).
	UsedCoverageConfig bool

	// Escapes classifies each unwitnessed mutation.
	Escapes []Escape

	// CoveredLines and EscapedLines list the changed line numbers (in the
	// post-patch file) whose compilation was witnessed / never witnessed,
	// for per-line patch annotation.
	CoveredLines []int
	EscapedLines []int
	// StaticDeadLines lists changed lines proven unreachable by the static
	// presence analysis: unsatisfiable under every candidate architecture.
	// They are excluded from EscapedLines — no compile was ever issued for
	// them (only with Options.StaticPresence).
	StaticDeadLines []int

	// CoveredByPatchCs is true for a header whose mutations were all
	// witnessed while compiling the .c files of the same patch (§III-E's
	// ideal case).
	CoveredByPatchCs bool
	// ExtraCCompiles counts additional .c files compiled to exercise a
	// header.
	ExtraCCompiles int

	// FailureDetail carries the underlying error text for failed statuses.
	FailureDetail string
}

// PatchReport is the result of checking one patch.
type PatchReport struct {
	Commit string
	Files  []FileOutcome

	// Durations of each operation class, in virtual time (Figures 4a-4c).
	ConfigDurations []time.Duration
	MakeIDurations  []time.Duration
	MakeODurations  []time.Duration
	// Total is the overall virtual running time (Figures 5-6).
	Total time.Duration

	// Untreatable marks patches touching build-setup files (§V-D).
	Untreatable bool

	// PrescanWarnings lists changed regions diagnosed as uncompilable
	// before any build ran (populated when Options.Prescan is set).
	PrescanWarnings []Escape

	// Retries counts transient failures that were retried; each retry's
	// backoff wait is in BackoffDurations and included in Total.
	Retries          int
	BackoffDurations []time.Duration
	// FaultEvents lists the faults the configured plan injected into this
	// patch, in injection order (empty without a fault plan).
	FaultEvents []faultinject.Event
	// BudgetExhausted is true when the virtual-time budget ran out and
	// the checker stopped launching builds.
	BudgetExhausted bool
	// Interrupted is true when Options.Interrupt stopped the check before
	// completion (service deadline, client gone); the report is a partial
	// answer. Unlike BudgetExhausted this is wall-clock-driven and
	// therefore NOT reproducible — it never occurs in evaluation runs,
	// which do not set Interrupt.
	Interrupted bool `json:",omitempty"`
	// QuarantinedArches lists architectures the circuit breaker shut off
	// during this patch, sorted.
	QuarantinedArches []string

	// StaticSkippedMakeI / StaticSkippedMakeO count preprocessing and
	// compilation passes the static presence analysis pruned: files whose
	// every mutation was proven dead are never handed to make. Deterministic
	// (derived from the patch content, not from scheduling).
	StaticSkippedMakeI int
	StaticSkippedMakeO int
	// StaticDynamicDisagreements lists static/dynamic cross-check failures:
	// places where a .i witness contradicted the presence prediction.
	// Always empty unless Options.StaticPresence is set; any entry is a
	// checker bug or a kconfig constraint the static model missed. Sorted
	// by file, line, then architecture.
	StaticDynamicDisagreements []StaticDisagreement
}

// StaticDisagreement records one static/dynamic cross-check failure.
type StaticDisagreement struct {
	File string
	Line int
	Arch string
	// Predicted is the static verdict (visible under this architecture's
	// allyesconfig, or — for a dead-marked line — visible at all); Observed
	// is what the .i actually showed.
	Predicted bool
	Observed  bool
}

// Certified reports whether every processed file had all changed lines
// subjected to the compiler.
func (r *PatchReport) Certified() bool {
	if r.Untreatable || len(r.Files) == 0 {
		return false
	}
	for _, f := range r.Files {
		if f.Status != StatusCertified && f.Status != StatusCommentOnly {
			return false
		}
	}
	return true
}

// Options tune the checker.
type Options struct {
	// MaxGroupSize bounds how many files one make invocation processes
	// (paper: 50, to avoid exhausting the in-memory filesystem).
	MaxGroupSize int
	// HCandidateLimit is the candidate-count threshold above which header
	// processing uses only allyesconfig (paper §III-E: 100,
	// user-configurable).
	HCandidateLimit int
	// TryAllModConfig additionally tries allmodconfig for every candidate
	// architecture, covering `#ifdef MODULE` regions at the cost of nearly
	// doubling the configurations tried (the paper's proposed extension,
	// §V-B).
	TryAllModConfig bool
	// Prescan statically diagnoses changed regions that no standard
	// configuration can compile *before* any build runs, populating
	// PatchReport.PrescanWarnings (the paper's §VII "ask for user
	// assistance" proposal, saving exploration of unpromising cases).
	Prescan bool
	// CoverageConfigs synthesizes targeted configurations for regions that
	// every standard configuration missed — forcing the guarding variables
	// to the values the region needs (#ifndef wants its variable off,
	// #ifdef wants it on plus its dependency chain). This implements the
	// Vampyr/Troll-style generation the paper cites as the way to handle
	// #ifndef and ifdef/else cases (§VI-VII).
	CoverageConfigs bool

	// StaticPresence enables the static presence-condition pre-pass: changed
	// lines whose condition is unsatisfiable under every candidate
	// architecture are reported as statically dead and never compiled,
	// candidate architectures are ordered by predicted witness count, and
	// every allyesconfig .i is cross-checked against the prediction
	// (PatchReport.StaticDynamicDisagreements). The analysis only prunes
	// when the unsatisfiability proof is exact, so certification semantics
	// are unchanged for live lines.
	StaticPresence bool

	// MaxRetries bounds how many times one transient MakeI/MakeO/config
	// failure is retried with capped exponential backoff (charged to
	// virtual time). 0 means the default of 2; negative disables retries.
	MaxRetries int
	// ArchFailureThreshold is how many consecutive non-permanent failures
	// an architecture may accumulate before the circuit breaker
	// quarantines it for the rest of the patch. 0 means the default of 3.
	ArchFailureThreshold int
	// Budget caps the virtual time one patch may spend. Once spent, the
	// checker stops launching builds and finalizes pending files with
	// StatusBudgetExhausted. 0 means unlimited.
	Budget time.Duration
	// Interrupt, when non-nil, is polled at every stage boundary (before a
	// configuration is built, between file groups, before each compile and
	// retry). The first true return stops the check: no further builds are
	// launched and pending files finalize as StatusCanceled. This is the
	// cancellation hook for service deadlines — wall-clock-driven and thus
	// NOT deterministic; reproducible evaluation runs must leave it nil
	// (nil costs nothing and changes nothing).
	Interrupt func() bool
	// Faults configures deterministic fault injection. The zero plan
	// injects nothing and adds no overhead.
	Faults faultinject.Plan
}

func (o Options) withDefaults() Options {
	if o.MaxGroupSize <= 0 {
		o.MaxGroupSize = 50
	}
	if o.HCandidateLimit <= 0 {
		o.HCandidateLimit = 100
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 2
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.ArchFailureThreshold <= 0 {
		o.ArchFailureThreshold = 3
	}
	return o
}
