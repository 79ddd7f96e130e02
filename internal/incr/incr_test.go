package incr

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"jmake/internal/commitgen"
	"jmake/internal/core"
	"jmake/internal/kbuild"
	"jmake/internal/kernelgen"
	"jmake/internal/vclock"
	"jmake/internal/vcs"
)

// Shared substrate: generating the tree and history dominates test time,
// so every test gets the same repo. Tests only append commits (the repo
// is append-only), and each test seeds its own follower, so sharing is
// safe as long as appended probe commits use distinct content.
var (
	subOnce sync.Once
	subRepo *vcs.Repo
	subIDs  []string
	subErr  error
)

func substrate(t *testing.T) (*vcs.Repo, []string) {
	t.Helper()
	subOnce.Do(func() {
		tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: 41, Scale: 0.15})
		if err != nil {
			subErr = err
			return
		}
		hist, err := commitgen.Build(tree, man, commitgen.Params{Seed: 42, Scale: 0.008})
		if err != nil {
			subErr = err
			return
		}
		subRepo = hist.Repo
		subIDs, subErr = subRepo.Between("v4.3", "v4.4", vcs.LogOptions{NoMerges: true, OnlyModify: true})
	})
	if subErr != nil {
		t.Fatalf("substrate: %v", subErr)
	}
	return subRepo, subIDs
}

// coldReport replicates the from-scratch CheckCommit path exactly: fresh
// checkout, fresh session, relevance filter, default model seeded by the
// ID length.
func coldReport(t *testing.T, repo *vcs.Repo, id string, opts core.Options) *core.PatchReport {
	t.Helper()
	tree, err := repo.CheckoutTree(id)
	if err != nil {
		t.Fatalf("checkout %s: %v", id, err)
	}
	sess, err := core.NewSession(tree)
	if err != nil {
		t.Fatalf("session %s: %v", id, err)
	}
	fds, err := repo.FileDiffs(id)
	if err != nil {
		t.Fatalf("diffs %s: %v", id, err)
	}
	kept := fds[:0:0]
	for _, fd := range fds {
		if core.RelevantPath(fd.NewPath) {
			kept = append(kept, fd)
		}
	}
	checker := sess.Checker(tree, vclock.DefaultModel(uint64(len(id))), opts)
	rep, err := checker.CheckPatch(id, kept)
	if err != nil {
		t.Fatalf("cold check %s: %v", id, err)
	}
	return rep
}

func marshal(t *testing.T, r *core.PatchReport) string {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func requireIdentical(t *testing.T, repo *vcs.Repo, res StepResult, opts core.Options) {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("follower check of %s failed: %v", res.Commit, res.Err)
	}
	warm := marshal(t, res.Report)
	cold := marshal(t, coldReport(t, repo, res.Commit, opts))
	if warm != cold {
		t.Fatalf("commit %s: incremental report differs from cold check\nwarm:\n%s\ncold:\n%s",
			res.Commit, warm, cold)
	}
}

var probeSig = vcs.Signature{Name: "Probe Author", Email: "probe@example.com", When: time.Unix(1700000000, 0)}

// appendEdit commits one file transformation at the tip.
func appendEdit(t *testing.T, repo *vcs.Repo, path string, transform func(string) string) string {
	t.Helper()
	old, err := repo.ReadTip(path)
	if err != nil {
		t.Fatalf("read tip %s: %v", path, err)
	}
	nv := transform(old)
	return repo.Commit(probeSig, "edit "+path, map[string]*string{path: &nv}, false)
}

// appendFn appends a uniquely-named function to a .c file, producing real
// changed lines for the checker to chase.
func appendFn(t *testing.T, repo *vcs.Repo, path, tag string) string {
	return appendEdit(t, repo, path, func(s string) string {
		return s + fmt.Sprintf("\nint probe_%s(void)\n{\n\treturn %d;\n}\n", tag, len(tag))
	})
}

// TestFollowerMatchesColdOnWindow replays a prefix of the evaluation
// window — skipping every other commit, so the follower also exercises
// applying unchecked intermediate commits — and requires byte-identity
// with cold checks throughout.
func TestFollowerMatchesColdOnWindow(t *testing.T) {
	repo, ids := substrate(t)
	var opts core.Options
	f, err := NewFollower(repo, ids[0], Options{Checker: opts})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := 2; i < len(ids) && checked < 8; i += 2 {
		res, err := f.Step(ids[i])
		if err != nil {
			t.Fatalf("step %s: %v", ids[i], err)
		}
		requireIdentical(t, repo, res, opts)
		if res.EffectiveSeconds > res.VirtualSeconds {
			t.Fatalf("commit %s: effective %.3f exceeds virtual %.3f",
				res.Commit, res.EffectiveSeconds, res.VirtualSeconds)
		}
		checked++
	}
	// Warmth must actually materialize: once the session has seen a few
	// commits, the ledgers are non-zero.
	if saved := f.Session().SavedEffective(); saved <= 0 {
		t.Fatalf("warm session saved nothing over %d commits", checked)
	}
}

// TestFollowerInvalidationEdges mutates one dependency-edge class at a
// time mid-stream — root file, direct header, transitive header, Kbuild
// gate, Kconfig constraint, arch defconfig list, build metadata — and
// requires the follower's next reports to stay byte-identical to cold
// checks. Each structural probe is crafted so stale session state would
// change report bytes (symbol counts price configs, setupops price
// builds, gates move presence formulas), so a missed invalidation fails
// loudly here.
func TestFollowerInvalidationEdges(t *testing.T) {
	repo, _ := substrate(t)
	var opts core.Options
	base := repo.Head()

	type probe struct {
		name string
		edit func(t *testing.T) string // appends the structural/dep edit, returns its ID
	}
	const root = "drivers/char/core.c"
	probes := []probe{
		{"root-file", func(t *testing.T) string {
			return appendFn(t, repo, root, "rootedit")
		}},
		{"direct-header", func(t *testing.T) string {
			return appendEdit(t, repo, "include/linux/cdev.h", func(s string) string {
				return strings.Replace(s, "#define MINORBITS 0x01", "#define MINORBITS 0x03", 1)
			})
		}},
		{"transitive-header", func(t *testing.T) string {
			return appendEdit(t, repo, "include/linux/types.h", func(s string) string {
				return strings.Replace(s, "typedef unsigned long size_t_k;", "typedef unsigned long size_t_k;\ntypedef unsigned long uptr_k;", 1)
			})
		}},
		{"kbuild-gate", func(t *testing.T) string {
			// Re-gate the probed TU: obj-y → a tristate symbol. Stale
			// gate state would leave core.c's presence formula ungated.
			return appendEdit(t, repo, "drivers/char/Makefile", func(s string) string {
				return strings.Replace(s, "obj-y += core.o", "obj-$(CONFIG_CHAR_DEV_DEBUG) += core.o", 1)
			})
		}},
		{"kconfig-constraint", func(t *testing.T) string {
			// A new symbol changes the Kconfig tree's size, which prices
			// every `make *config`; stale valuations would keep the old
			// symbol count in ConfigDurations.
			return appendEdit(t, repo, "drivers/char/Kconfig", func(s string) string {
				return s + "\nconfig PROBE_EXTRA\n\tbool \"probe extra\"\n\tdefault y\n\tdepends on CHAR_DEV\n"
			})
		}},
		{"arch-list", func(t *testing.T) string {
			// A new defconfig mentioning the gating variable changes the
			// §III-C candidate list for files gated by it.
			content := "CONFIG_CHAR_DEV=y\nCONFIG_CHAR_DEV_DEBUG=y\n"
			return repo.Commit(probeSig, "add defconfig",
				map[string]*string{"arch/alpha/configs/probe_defconfig": &content}, false)
		}},
		{"kbuild-meta", func(t *testing.T) string {
			// Re-pricing x86_64's set-up ops changes every MakeI first
			// invocation on the host arch; stale metadata would keep the
			// old price.
			return appendEdit(t, repo, "Kbuild.meta", func(s string) string {
				return strings.Replace(s, "setupops x86_64 84", "setupops x86_64 85", 1)
			})
		}},
	}

	f, err := NewFollower(repo, base, Options{Checker: opts})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range probes {
		editID := pr.edit(t)
		// Check the edit commit itself (non-source edits yield zero-plan
		// reports, still byte-compared), then a fresh .c edit that must
		// observe the new state.
		res, err := f.Step(editID)
		if err != nil {
			t.Fatalf("%s: step edit: %v", pr.name, err)
		}
		requireIdentical(t, repo, res, opts)

		probeID := appendFn(t, repo, root, fmt.Sprintf("after%d", i))
		res, err = f.Step(probeID)
		if err != nil {
			t.Fatalf("%s: step probe: %v", pr.name, err)
		}
		requireIdentical(t, repo, res, opts)
		if res.Files != 1 {
			t.Fatalf("%s: probe commit should have 1 relevant file, got %d", pr.name, res.Files)
		}
	}
}

// TestFollowerEmptyAndMergeCommits checks the stream edge cases: a commit
// with an empty diff yields a zero-plan report (not an error), and merge
// commits are followed like any other.
func TestFollowerEmptyAndMergeCommits(t *testing.T) {
	repo, _ := substrate(t)
	var opts core.Options
	base := repo.Head()

	// Empty diff: rewriting a file with identical content records no
	// changes.
	same, err := repo.ReadTip("drivers/char/core.c")
	if err != nil {
		t.Fatal(err)
	}
	emptyID := repo.Commit(probeSig, "no-op", map[string]*string{"drivers/char/core.c": &same}, false)
	// Merge commit with a real change.
	merged, err := repo.ReadTip("drivers/char/gampax.c")
	if err != nil {
		// Fall back to any drivers .c file if the sample name shifts.
		t.Skipf("sample file missing: %v", err)
	}
	merged += "\nint probe_merge(void)\n{\n\treturn 7;\n}\n"
	mergeID := repo.Commit(probeSig, "merge", map[string]*string{"drivers/char/gampax.c": &merged}, true)

	f, err := NewFollower(repo, base, Options{Checker: opts})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Step(emptyID)
	if err != nil {
		t.Fatalf("empty-diff step: %v", err)
	}
	if res.Report == nil || len(res.Report.Files) != 0 || res.Files != 0 {
		t.Fatalf("empty-diff commit should yield a zero-plan report, got %+v", res.Report)
	}
	requireIdentical(t, repo, res, opts)

	res, err = f.Step(mergeID)
	if err != nil {
		t.Fatalf("merge step: %v", err)
	}
	requireIdentical(t, repo, res, opts)
}

// TestFollowerRandomStream is the fuzz-style cross-check: a seeded random
// subset of the window (random gaps exercise intermediate application)
// streamed through Run must stay byte-identical to cold checks, under
// the default options and under all four checker extensions (the option
// sets a follower is keyed by).
func TestFollowerRandomStream(t *testing.T) {
	repo, ids := substrate(t)
	rng := rand.New(rand.NewSource(7))
	var stream []string
	for i := 1; i < len(ids) && len(stream) < 10; i++ {
		if rng.Intn(3) > 0 {
			continue
		}
		stream = append(stream, ids[i])
	}
	if len(stream) < 4 {
		t.Fatalf("stream too small: %d", len(stream))
	}

	for _, set := range []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		{"extensions", core.Options{StaticPresence: true, Prescan: true, TryAllModConfig: true, CoverageConfigs: true}},
	} {
		name, opts := set.name, set.opts
		f, err := NewFollower(repo, ids[0], Options{Checker: opts})
		if err != nil {
			t.Fatal(err)
		}
		var got []StepResult
		if err := f.Run(stream, func(r StepResult) bool {
			got = append(got, r)
			return true
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(stream) {
			t.Fatalf("%s: emitted %d of %d", name, len(got), len(stream))
		}
		for i, r := range got {
			if r.Commit != stream[i] {
				t.Fatalf("%s: out of order: got %s want %s", name, r.Commit, stream[i])
			}
			if r.Err != nil {
				t.Fatalf("%s: %s: %v", name, r.Commit, r.Err)
			}
			if marshal(t, r.Report) != marshal(t, coldReport(t, repo, r.Commit, opts)) {
				t.Fatalf("%s: commit %s differs from cold", name, r.Commit)
			}
		}
	}
}

// TestRunRefusesOutOfOrderStream: the follower walks history in order,
// so a stream whose IDs do not strictly increase in history (reordered,
// or repeating an ID) is refused before anything is applied, and the
// cursor stays where it was.
func TestRunRefusesOutOfOrderStream(t *testing.T) {
	repo, ids := substrate(t)
	if len(ids) < 6 {
		t.Fatalf("window too small: %d commits", len(ids))
	}
	f, err := NewFollower(repo, ids[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range [][]string{
		{ids[3], ids[2], ids[5]},
		{ids[2], ids[2]},
		{ids[1], ids[4], ids[4]},
	} {
		if f.Serves(stream) {
			t.Errorf("Serves(%.8s) = true for an out-of-order stream", stream)
		}
		emitted := 0
		err := f.Run(stream, func(StepResult) bool {
			emitted++
			return true
		})
		if err == nil || emitted != 0 {
			t.Fatalf("Run(%.8s): err %v after %d results, want a refusal before any", stream, err, emitted)
		}
		if f.cursor != ids[0] {
			t.Fatalf("Run(%.8s) moved the cursor to %.8s", stream, f.cursor)
		}
	}
	if in := []string{ids[1], ids[2]}; !f.Serves(in) {
		t.Fatalf("Serves(%.8s) = false for an in-order stream", in)
	}
	res, err := f.Step(ids[1])
	if err != nil {
		t.Fatalf("step %s after refusals: %v", ids[1], err)
	}
	requireIdentical(t, repo, res, core.Options{})
}

// TestFollowerRetriesBrokenMeta: after a commit breaks Kbuild.meta, a
// one-shot check of any later commit refuses (its session cannot load the
// manifest), so the follower must refuse too, not answer from the older
// metadata it still holds, until a commit repairs the manifest. The first
// check after the repair matches a cold check byte for byte. Run and Step
// walk the same sequence.
func TestFollowerRetriesBrokenMeta(t *testing.T) {
	repo, _ := substrate(t)
	var opts core.Options
	const root = "drivers/char/core.c"
	good, err := repo.ReadTip(kbuild.MetaPath)
	if err != nil {
		t.Fatal(err)
	}
	broken := good + "bogus line here\n"
	for _, mode := range []string{"Run", "Step"} {
		base := repo.Head()
		seq := []string{
			repo.Commit(probeSig, "break meta", map[string]*string{kbuild.MetaPath: &broken}, false),
			appendFn(t, repo, root, "metabroken"+mode),
			repo.Commit(probeSig, "repair meta", map[string]*string{kbuild.MetaPath: &good}, false),
			appendFn(t, repo, root, "metarepaired"+mode),
		}
		tree, err := repo.CheckoutTree(seq[1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.NewSession(tree); err == nil {
			t.Fatalf("%s: a cold session over a broken manifest loaded", mode)
		}

		f, err := NewFollower(repo, base, Options{Checker: opts})
		if err != nil {
			t.Fatal(err)
		}
		var got []StepResult
		if mode == "Run" {
			err = f.Run(seq, func(r StepResult) bool {
				got = append(got, r)
				return true
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		} else {
			for _, id := range seq {
				r, _ := f.Step(id)
				got = append(got, r)
			}
		}
		if len(got) != len(seq) {
			t.Fatalf("%s: %d results for %d commits", mode, len(got), len(seq))
		}
		if got[0].Err == nil {
			t.Errorf("%s: the manifest-breaking commit refreshed without error", mode)
		}
		if got[1].Err == nil || got[1].Report != nil {
			t.Errorf("%s: probe over a broken manifest: err %v, report %v; want an error and no report",
				mode, got[1].Err, got[1].Report != nil)
		}
		if got[2].Err != nil {
			t.Errorf("%s: the repairing commit: %v", mode, got[2].Err)
		}
		requireIdentical(t, repo, got[3], opts)
	}
}

// TestRunReactive smoke-checks the benchmark harness over a short stream:
// per-commit entries exist, virtual cost is positive, and warm effective
// cost lands below virtual once warmed up.
func TestRunReactive(t *testing.T) {
	repo, _ := substrate(t)
	rep, err := RunReactive(repo, ReactiveParams{Commits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Commits != 10 || len(rep.PerCommit) != 10 {
		t.Fatalf("expected 10 replayed commits, got %d", rep.Commits)
	}
	if rep.TotalVirtualSeconds <= 0 {
		t.Fatalf("no virtual cost recorded")
	}
	if rep.TotalEffectiveSeconds >= rep.TotalVirtualSeconds {
		t.Fatalf("warm replay saved nothing: effective %.2f vs virtual %.2f",
			rep.TotalEffectiveSeconds, rep.TotalVirtualSeconds)
	}
	if rep.SmallCommits > 0 && rep.SmallCommitMeanRatio >= 1 {
		t.Fatalf("small-commit ratio not below 1: %.3f", rep.SmallCommitMeanRatio)
	}
}
