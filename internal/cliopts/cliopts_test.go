package cliopts

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jmake"
)

// TestCheckFlagNames pins the shared flag surface: these are the exact
// names both CLIs exposed before extraction, so renaming any of them is a
// breaking change to scripts and to the jmaked request schema alike.
func TestCheckFlagNames(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var (
		ws    Workspace
		chk   Check
		cache Cache
		tro   Trace
	)
	ws.Register(fs, 0.4, 0.05)
	chk.Register(fs)
	cache.Register(fs)
	tro.Register(fs)
	for _, name := range []string{
		"tree-seed", "history-seed", "tree-scale", "commit-scale",
		"allmod", "prescan", "coverage", "static",
		"fault-rate", "fault-seed", "budget", "retries",
		"cache-dir", "cache-max-bytes", "no-result-cache", "cache-stats",
		"trace-out", "trace-tree",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if got := fs.Lookup("tree-scale").DefValue; got != "0.4" {
		t.Errorf("tree-scale default = %s, want the caller's 0.4", got)
	}
}

// TestCheckOptions verifies the flag → checker-options translation,
// including the fault-plan gate and the zero-seed fallback for JSON
// requests that omit fault_seed.
func TestCheckOptions(t *testing.T) {
	opts := Check{AllMod: true, Static: true, Retries: 3, Budget: time.Second}.Options()
	if !opts.TryAllModConfig || !opts.StaticPresence || opts.MaxRetries != 3 || opts.Budget != time.Second {
		t.Errorf("options not translated: %+v", opts)
	}
	if opts.Faults.Enabled() {
		t.Error("fault plan enabled without fault-rate")
	}
	opts = Check{FaultRate: 0.5}.Options()
	if !opts.Faults.Enabled() {
		t.Fatal("fault plan not enabled at rate 0.5")
	}
	if opts.Faults != jmake.UniformFaultPlan(1, 0.5) {
		t.Errorf("zero fault seed did not fall back to the CLI default of 1: %+v", opts.Faults)
	}
}

// TestCheckJSONSchema: the Check struct IS the daemon's request-options
// schema; pin the wire names so a field rename cannot silently break
// clients.
func TestCheckJSONSchema(t *testing.T) {
	data, err := json.Marshal(Check{
		AllMod: true, Prescan: true, Coverage: true, Static: true,
		FaultRate: 0.25, FaultSeed: 7, Budget: 90 * time.Second, Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"allmod", "prescan", "coverage", "static",
		"fault_rate", "fault_seed", "budget_ns", "retries"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON key %q missing: %s", key, data)
		}
	}
	if m["budget_ns"] != float64(90*time.Second) {
		t.Errorf("budget_ns = %v, want nanoseconds", m["budget_ns"])
	}
	var back Check
	if err := json.Unmarshal([]byte(`{"static":true,"budget_ns":1000}`), &back); err != nil {
		t.Fatal(err)
	}
	if !back.Static || back.Budget != 1000 {
		t.Errorf("round-trip failed: %+v", back)
	}
}

// TestWorkspaceBuildAndSession builds a tiny workspace end to end and
// checks target selection windows.
func TestWorkspaceBuildAndSession(t *testing.T) {
	built, err := Workspace{TreeSeed: 1, HistorySeed: 2, TreeScale: 0.12, CommitScale: 0.008}.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(built.WindowIDs) == 0 {
		t.Fatal("empty patch window")
	}
	if got := built.Targets("abc", 5); len(got) != 1 || got[0] != "abc" {
		t.Errorf("Targets(commit) = %v", got)
	}
	if got := built.Targets("", 3); len(got) != 3 || got[2] != built.WindowIDs[len(built.WindowIDs)-1] {
		t.Errorf("Targets(n=3) = %v", got)
	}
	if got := built.Targets("", len(built.WindowIDs)+10); len(got) != len(built.WindowIDs) {
		t.Errorf("oversized n returned %d targets", len(got))
	}
	session, err := built.SessionAt(built.WindowIDs[0])
	if err != nil {
		t.Fatalf("SessionAt: %v", err)
	}

	// Cache wiring: dir warm-starts the session's own result cache (its
	// counters are session registry series) and flushes back out;
	// disabled wins over dir.
	own := session.ResultCache()
	dir := t.TempDir()
	c := Cache{Dir: dir}
	c.Apply(session)
	if session.ResultCache() != own {
		t.Fatal("cache dir replaced the session's result cache")
	}
	if err := c.Flush(session); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jmake-ccache.json")); err != nil {
		t.Errorf("flush wrote nothing: %v", err)
	}
	if err := (Cache{}).Flush(session); err != nil {
		t.Errorf("no-dir Flush should be a no-op: %v", err)
	}
	Cache{Disable: true, Dir: t.TempDir()}.Apply(session)
	if session.ResultCache() != nil {
		t.Error("Disable did not clear the result cache")
	}
}

// TestWorkspaceHistoryPinned pins the synthesized history of two
// workspaces: the CLI default and perfbench's at seed 1. The head ID
// chains SHA-1 over every commit's blob IDs, so it moves when any byte of
// any commit does; the window length counts the window commits that
// landed.
func TestWorkspaceHistoryPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ws     Workspace
		long   bool
		head   string
		window int
	}{
		{"cli-default", Workspace{TreeSeed: 1, HistorySeed: 2, TreeScale: 0.4, CommitScale: 0.05}, false, "0154824f01a6d058c55d47e123c24a39ce05c4c2", 647},
		{"perfbench-seed-1", Workspace{TreeSeed: 1, HistorySeed: 2, TreeScale: 1.0, CommitScale: 0.3}, true, "8052c93111499245ff702e04f3bfdcbfbb9dbb0e", 3884},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("full-scale history synthesis is slow")
			}
			built, err := tc.ws.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if got := built.Hist.Repo.Head(); got != tc.head {
				t.Errorf("head = %s, want %s", got, tc.head)
			}
			if got := len(built.WindowIDs); got != tc.window {
				t.Errorf("window commits = %d, want %d", got, tc.window)
			}
		})
	}
}

// BenchmarkWorkspaceBuild times one workspace synthesis at perfbench's
// scales (tree 1.0, commit 0.3): the tree, its history and the window,
// the set-up every CLI run and jmaked start pays.
func BenchmarkWorkspaceBuild(b *testing.B) {
	ws := Workspace{TreeSeed: 1, HistorySeed: 2, TreeScale: 1.0, CommitScale: 0.3}
	for i := 0; i < b.N; i++ {
		built, err := ws.Build()
		if err != nil {
			b.Fatal(err)
		}
		benchBuilt = built
	}
}

// benchBuilt keeps BenchmarkWorkspaceBuild's result reachable.
var benchBuilt *Built
