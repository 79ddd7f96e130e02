package jmake_test

import (
	"path"
	"strconv"
	"strings"
	"testing"

	"jmake"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	tree, man, err := jmake.GenerateKernel(1, 0.15)
	if err != nil {
		t.Fatalf("GenerateKernel: %v", err)
	}
	if tree.Len() == 0 || len(man.Drivers) == 0 {
		t.Fatal("empty tree or manifest")
	}
	hist, err := jmake.SynthesizeHistory(tree, man, 2, 0.01)
	if err != nil {
		t.Fatalf("SynthesizeHistory: %v", err)
	}
	ids, err := hist.Repo.Between("v4.3", "v4.4", jmake.ModifyingNonMerge)
	if err != nil {
		t.Fatalf("Between: %v", err)
	}
	if len(ids) == 0 {
		t.Fatal("no window commits")
	}

	checked := 0
	for _, id := range ids {
		report, err := jmake.CheckCommit(hist.Repo, id, jmake.Options{})
		if err != nil {
			t.Fatalf("CheckCommit(%s): %v", id, err)
		}
		if len(report.Files) == 0 {
			continue // path-filtered commit
		}
		checked++
		if checked >= 5 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no commits checked")
	}
}

func TestPublicMutate(t *testing.T) {
	res := jmake.Mutate("f.c", "int a;\nint b;\n", []int{2})
	if len(res.Mutations) != 1 {
		t.Fatalf("Mutations = %d", len(res.Mutations))
	}
	if !strings.Contains(res.Content, res.Mutations[0].ID) {
		t.Error("mutation not inserted")
	}
}

func TestPublicJanitorStudy(t *testing.T) {
	tree, man, err := jmake.GenerateKernel(5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := jmake.SynthesizeHistory(tree, man, 6, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	mtext, err := hist.Repo.ReadTip("MAINTAINERS")
	if err != nil {
		t.Fatal(err)
	}
	th := jmake.DefaultJanitorThresholds()
	th.MinPatches, th.MinSubsystems, th.MinLists, th.MinWindowPatches = 3, 3, 2, 1
	js, err := jmake.IdentifyJanitors(hist.Repo, mtext, th)
	if err != nil {
		t.Fatalf("IdentifyJanitors: %v", err)
	}
	if len(js) == 0 {
		t.Fatal("no janitors identified")
	}
}

func TestSessionReuse(t *testing.T) {
	tree, man, err := jmake.GenerateKernel(7, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := jmake.SynthesizeHistory(tree, man, 8, 0.008)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := hist.Repo.Between("v4.3", "v4.4", jmake.ModifyingNonMerge)
	base, err := hist.Repo.CheckoutTree(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	session, err := jmake.NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if i >= 6 {
			break
		}
		snap, err := hist.Repo.CheckoutTree(id)
		if err != nil {
			t.Fatal(err)
		}
		fds, err := hist.Repo.FileDiffs(id)
		if err != nil {
			t.Fatal(err)
		}
		checker := jmake.NewChecker(session, snap, 1, jmake.Options{})
		if _, err := checker.CheckPatch(id, fds); err != nil {
			t.Fatalf("CheckPatch: %v", err)
		}
	}
}

func TestCheckPatchText(t *testing.T) {
	tree, man, err := jmake.GenerateKernel(9, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	// Craft a patch against a generated driver.
	var path string
	for _, d := range man.Drivers {
		if d.ArchBound == "" {
			path = d.CFile
			break
		}
	}
	old, err := tree.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(old, "0x04", "0x09", 1)
	if edited == old {
		t.Skip("driver lacks the expected register constant")
	}
	fd, _ := jmake.DiffFiles(path, old, edited)
	patch := jmake.FormatDiff(fd)

	report, err := jmake.CheckPatchText(tree, patch, jmake.Options{})
	if err != nil {
		t.Fatalf("CheckPatchText: %v", err)
	}
	if !report.Certified() {
		t.Errorf("patch not certified: %+v", report.Files)
	}
	// The original tree must be untouched.
	now, _ := tree.Read(path)
	if now != old {
		t.Error("CheckPatchText modified the input tree")
	}
}

func TestCheckPatchTextErrors(t *testing.T) {
	tree, _, err := jmake.GenerateKernel(9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jmake.CheckPatchText(tree, "not a patch", jmake.Options{}); err == nil {
		t.Error("garbage patch accepted")
	}
	bad := "--- a/drivers/net/nonexistent.c\n+++ b/drivers/net/nonexistent.c\n@@ -1,1 +1,1 @@\n-x\n+y\n"
	if _, err := jmake.CheckPatchText(tree, bad, jmake.Options{}); err == nil {
		t.Error("patch against missing file accepted")
	}
}

// A patch whose Makefile line turns a driver's object into a composite of
// itself (foo-y := foo.o) once crashed the process with a stack overflow in
// the Kbuild walk. It must now yield an ordinary report in which the
// driver is unreachable.
func TestCheckPatchTextCompositeCycle(t *testing.T) {
	tree, man, err := jmake.GenerateKernel(9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range man.Drivers {
		if d.ArchBound != "" || d.ExtraCFile != "" {
			continue
		}
		obj := strings.TrimSuffix(path.Base(d.CFile), ".c") + ".o"
		mk := path.Dir(d.CFile) + "/Makefile"
		oldMk, err := tree.Read(mk)
		if err != nil {
			continue
		}
		rule := "obj-$(CONFIG_" + d.ConfigVar + ") += " + obj + "\n"
		if !strings.Contains(oldMk, rule) {
			continue
		}
		oldC, _ := tree.Read(d.CFile)
		mkDiff, _ := jmake.DiffFiles(mk, oldMk, strings.Replace(oldMk, rule, strings.TrimSuffix(obj, ".o")+"-y := "+obj+"\n", 1))
		cDiff, _ := jmake.DiffFiles(d.CFile, oldC, oldC+"int composite_cycle_probe;\n")
		report, err := jmake.CheckPatchText(tree, jmake.FormatDiff(mkDiff)+jmake.FormatDiff(cDiff), jmake.Options{})
		if err != nil {
			t.Fatalf("CheckPatchText: %v", err)
		}
		for _, fo := range report.Files {
			if fo.Path == d.CFile {
				if !strings.Contains(fo.FailureDetail, "no rule for "+obj) {
					t.Errorf("%s: status %v, detail %q; want a no-rule failure", fo.Path, fo.Status, fo.FailureDetail)
				}
				return
			}
		}
		t.Fatalf("report has no outcome for %s: %+v", d.CFile, report.Files)
	}
	t.Skip("no single-file driver with a plain obj- rule at this seed")
}

// TestFacadeResultCacheCountsIntoSession checks 10 commits twice through
// a session given a facade-built result cache, cold from NewResultCache
// and from LoadResultCache over an empty directory, and requires the
// session's registry to report exactly the cache's own counts.
func TestFacadeResultCacheCountsIntoSession(t *testing.T) {
	tree, man, err := jmake.GenerateKernel(7, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := jmake.SynthesizeHistory(tree, man, 8, 0.008)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := hist.Repo.Between("v4.3", "v4.4", jmake.ModifyingNonMerge)
	if len(ids) < 10 {
		t.Fatalf("window has %d commits, want at least 10", len(ids))
	}
	ids = ids[:10]
	for name, cache := range map[string]*jmake.ResultCache{
		"new":  jmake.NewResultCache(),
		"load": jmake.LoadResultCache(t.TempDir()),
	} {
		base, err := hist.Repo.CheckoutTree(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		session, err := jmake.NewSession(base)
		if err != nil {
			t.Fatal(err)
		}
		session.SetResultCache(cache)
		for pass := 0; pass < 2; pass++ {
			for _, id := range ids {
				if _, err := jmake.CheckCommitWith(session, hist.Repo, id, jmake.Options{}); err != nil {
					t.Fatalf("%s: CheckCommitWith(%s): %v", name, id, err)
				}
			}
		}
		stats, _ := session.ResultCacheStats()
		if stats.MakeI.Hits == 0 || stats.MakeI.Misses == 0 {
			t.Fatalf("%s: make_i %d hits / %d misses, want both > 0", name, stats.MakeI.Hits, stats.MakeI.Misses)
		}
		got := make(map[string]string)
		for _, s := range session.Metrics().Snapshot() {
			got[s.Name] = s.Value
		}
		for key, want := range map[string]uint64{
			"result_cache_hits{stage=make_i}":         stats.MakeI.Hits,
			"result_cache_misses{stage=make_i}":       stats.MakeI.Misses,
			"result_cache_bytes_served{stage=make_i}": stats.MakeI.BytesServed,
			"result_cache_hits{stage=make_o}":         stats.MakeO.Hits,
			"result_cache_misses{stage=make_o}":       stats.MakeO.Misses,
			"result_cache_bytes_served{stage=make_o}": stats.MakeO.BytesServed,
		} {
			if g := got[key]; g != strconv.FormatUint(want, 10) {
				t.Errorf("%s: session registry %s = %q, cache says %d", name, key, g, want)
			}
		}
	}
}
