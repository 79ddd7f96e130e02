// Package cliopts is the flag surface shared by the jmake command-line
// tools (cmd/jmake, cmd/jmake-eval) and the jmaked service. Before it
// existed, the two CLIs carried ~23 duplicated flag definitions that had
// already started to drift (one had -cache-max-bytes, the other
// -cache-stats); the daemon would have made a third copy. Each option
// group here registers its flags once and builds the corresponding
// runtime objects, and the Check group doubles — via its JSON tags — as
// the jmaked request-options schema, so a flag added for the CLI is
// automatically requestable over HTTP.
package cliopts

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"jmake"
)

// Workspace selects the generated evaluation substrate: which
// kernel-shaped tree and commit history the tool runs against.
type Workspace struct {
	TreeSeed    int64
	HistorySeed int64
	TreeScale   float64
	CommitScale float64
}

// Register binds the workspace flags. Scale defaults differ per tool
// (jmake favors a small interactive workspace, jmake-eval the paper's
// full scale), so the caller passes them in.
func (w *Workspace) Register(fs *flag.FlagSet, treeScale, commitScale float64) {
	fs.Int64Var(&w.TreeSeed, "tree-seed", 1, "kernel tree generation seed")
	fs.Int64Var(&w.HistorySeed, "history-seed", 2, "history generation seed")
	fs.Float64Var(&w.TreeScale, "tree-scale", treeScale, "kernel tree size multiplier")
	fs.Float64Var(&w.CommitScale, "commit-scale", commitScale, "history size multiplier (1.0 = 12,946 window commits)")
}

// Built is a generated workspace ready for checking: the tree, its
// history, and the v4.3→v4.4 patch window.
type Built struct {
	Tree      *jmake.Tree
	Manifest  *jmake.Manifest
	Hist      *jmake.History
	WindowIDs []string
}

// Build generates the tree and history and resolves the patch window.
func (w Workspace) Build() (*Built, error) {
	tree, man, err := jmake.GenerateKernel(w.TreeSeed, w.TreeScale)
	if err != nil {
		return nil, err
	}
	hist, err := jmake.SynthesizeHistory(tree, man, w.HistorySeed, w.CommitScale)
	if err != nil {
		return nil, err
	}
	ids, err := hist.Repo.Between("v4.3", "v4.4", jmake.ModifyingNonMerge)
	if err != nil {
		return nil, err
	}
	return &Built{Tree: tree, Manifest: man, Hist: hist, WindowIDs: ids}, nil
}

// Targets selects the commits to check: one specific commit when set,
// otherwise the latest n window commits.
func (b *Built) Targets(commit string, n int) []string {
	if commit != "" {
		return []string{commit}
	}
	start := len(b.WindowIDs) - n
	if start < 0 {
		start = 0
	}
	return b.WindowIDs[start:]
}

// SessionAt checks out the snapshot for id and opens a Session over it,
// the shared state for checking many commits of this workspace.
func (b *Built) SessionAt(id string) (*jmake.Session, error) {
	base, err := b.Hist.Repo.CheckoutTree(id)
	if err != nil {
		return nil, err
	}
	return jmake.NewSession(base)
}

// Check is the per-check option group. Its JSON tags make it the jmaked
// request-options schema: the same struct parsed from flags on the CLI
// arrives as the "options" object of a /check request, so the two paths
// cannot drift apart.
type Check struct {
	AllMod    bool          `json:"allmod,omitempty"`
	Prescan   bool          `json:"prescan,omitempty"`
	Coverage  bool          `json:"coverage,omitempty"`
	Static    bool          `json:"static,omitempty"`
	FaultRate float64       `json:"fault_rate,omitempty"`
	FaultSeed uint64        `json:"fault_seed,omitempty"`
	Budget    time.Duration `json:"budget_ns,omitempty"`
	Retries   int           `json:"retries,omitempty"`
}

// Register binds the check flags.
func (c *Check) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.AllMod, "allmod", false, "also try allmodconfig (covers #ifdef MODULE, ~2x configurations)")
	fs.BoolVar(&c.Prescan, "prescan", false, "statically warn about doomed regions before building")
	fs.BoolVar(&c.Coverage, "coverage", false, "synthesize targeted configurations for regions standard configs miss")
	fs.BoolVar(&c.Static, "static", false, "prove dead lines before building and cross-check predictions against .i witnesses")
	fs.Float64Var(&c.FaultRate, "fault-rate", 0, "inject deterministic faults at this per-operation rate (0 = off)")
	fs.Uint64Var(&c.FaultSeed, "fault-seed", 1, "fault-plan seed (with -fault-rate)")
	fs.DurationVar(&c.Budget, "budget", 0, "per-patch virtual-time budget (0 = unlimited)")
	fs.IntVar(&c.Retries, "retries", 0, "max retries per transient failure (0 = default 2, negative = off)")
}

// Options translates the group into checker options. A zero FaultSeed
// (JSON requests omit it) falls back to the CLI flag default of 1.
func (c Check) Options() jmake.Options {
	opts := jmake.Options{
		TryAllModConfig: c.AllMod,
		Prescan:         c.Prescan,
		CoverageConfigs: c.Coverage,
		StaticPresence:  c.Static,
		MaxRetries:      c.Retries,
		Budget:          c.Budget,
	}
	if c.FaultRate > 0 {
		seed := c.FaultSeed
		if seed == 0 {
			seed = 1
		}
		opts.Faults = jmake.UniformFaultPlan(seed, c.FaultRate)
	}
	return opts
}

// Cache is the compile-result-cache option group.
type Cache struct {
	Dir      string
	MaxBytes int64
	Disable  bool
	Stats    bool
}

// Register binds the cache flags.
func (c *Cache) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "cache-dir", "", "persist the compile-result cache here across runs (warm-start + save back)")
	fs.Int64Var(&c.MaxBytes, "cache-max-bytes", 0, "persistent result-cache size bound (0 = 64 MiB)")
	fs.BoolVar(&c.Disable, "no-result-cache", false, "disable the shared compile-result cache (identical verdicts, more compute)")
	fs.BoolVar(&c.Stats, "cache-stats", false, "print result-cache counters after checking")
}

// Apply configures the session's result cache per the flags: disabled,
// the default in-memory cache, or warm-started from Dir with persistence
// failures counted in the session's metrics registry.
func (c Cache) Apply(session *jmake.Session) {
	switch {
	case c.Disable:
		session.SetResultCache(nil)
	case c.Dir != "":
		session.ResultCache().Load(c.Dir) // best-effort warm start; corrupt = cold
	}
}

// Flush persists the result cache back to Dir; a no-op without -cache-dir
// or with the cache disabled.
func (c Cache) Flush(session *jmake.Session) error {
	if c.Disable || c.Dir == "" || session.ResultCache() == nil {
		return nil
	}
	return session.ResultCache().Save(c.Dir, c.MaxBytes)
}

// PrintStats writes the human cache-counter line when -cache-stats is on.
func (c Cache) PrintStats(w io.Writer, session *jmake.Session) {
	st, ok := session.ResultCacheStats()
	if !ok || !c.Stats {
		return
	}
	fmt.Fprintf(w, "result cache: make.i %d/%d hits (%d deduped), make.o %d/%d hits, %d entries, saved %v virtual\n",
		st.MakeI.Hits, st.MakeI.Hits+st.MakeI.Misses, st.MakeI.Deduped,
		st.MakeO.Hits, st.MakeO.Hits+st.MakeO.Misses,
		st.Entries, st.SavedVirtual.Round(time.Millisecond))
}

// Trace is the trace-export option group.
type Trace struct {
	Out  string
	Tree string
}

// Register binds the trace flags.
func (t *Trace) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Out, "trace-out", "", "write a Chrome trace-event JSON file of the run's virtual-time spans")
	fs.StringVar(&t.Tree, "trace-tree", "", "write the run's virtual-time spans as an indented text tree")
}

// Enabled reports whether any trace output was requested.
func (t Trace) Enabled() bool { return t.Out != "" || t.Tree != "" }

// WriteFiles writes the requested artifacts (chrome is the trace-event
// JSON, treeText the indented tree), noting each file on note.
func (t Trace) WriteFiles(chrome []byte, treeText string, note io.Writer) error {
	if t.Out != "" {
		if err := os.WriteFile(t.Out, chrome, 0o644); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(note, "wrote Chrome trace to %s\n", t.Out)
	}
	if t.Tree != "" {
		if err := os.WriteFile(t.Tree, []byte(treeText), 0o644); err != nil {
			return fmt.Errorf("writing trace tree: %w", err)
		}
		fmt.Fprintf(note, "wrote span tree to %s\n", t.Tree)
	}
	return nil
}
