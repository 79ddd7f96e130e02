package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"jmake/internal/fstree"
	"jmake/internal/metrics"
	"jmake/internal/textdiff"
	"jmake/internal/vclock"
)

// cacheFixtureEdit prepares a fresh fixture tree with one .c and one .h
// edit applied, returning the tree and diffs.
func cacheFixtureEdit(t *testing.T) (*fstree.Tree, []textdiff.FileDiff) {
	t.Helper()
	tr := fixtureTree()
	oldC, _ := tr.Read("drivers/net/netdrv.c")
	fdC := applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(oldC, "0x40", "0x41", 1))
	oldH, _ := tr.Read("include/linux/netdev.h")
	fdH := applyEdit(t, tr, "include/linux/netdev.h",
		strings.Replace(oldH, "<< 4)", "<< 5)", 1))
	return tr, []textdiff.FileDiff{fdC, fdH}
}

// The correctness crux: a PatchReport must be byte-identical with the
// result cache on or off. Durations, statuses, escapes, fault bookkeeping
// — everything.
func TestResultCacheOnOffReportEquality(t *testing.T) {
	check := func(cacheOn bool) *PatchReport {
		tr, fds := cacheFixtureEdit(t)
		ch := newFixtureChecker(t, tr)
		if !cacheOn {
			ch.results = nil
		}
		report, err := ch.CheckPatch("test", fds)
		if err != nil {
			t.Fatalf("CheckPatch(cache=%v): %v", cacheOn, err)
		}
		return report
	}
	on := check(true)
	off := check(false)
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("reports differ with cache on vs off:\non:  %+v\noff: %+v", on, off)
	}
}

// Cache warmth must be equally invisible: checking patch B after patch A
// warmed the shared session cache yields the same report as checking B
// against a fresh session.
func TestResultCacheWarmthInvariantReports(t *testing.T) {
	checkB := func(warmFirst bool) *PatchReport {
		base := fixtureTree()
		session, err := NewSession(base)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		if warmFirst {
			trA := fixtureTree()
			oldC, _ := trA.Read("drivers/net/netdrv.c")
			fdA := applyEdit(t, trA, "drivers/net/netdrv.c",
				strings.Replace(oldC, "return 0;", "return 1;", 1))
			ch := session.Checker(trA, vclock.DefaultModel(1), Options{})
			if _, err := ch.CheckPatch("warmup", []textdiff.FileDiff{fdA}); err != nil {
				t.Fatalf("warmup CheckPatch: %v", err)
			}
		}
		trB, fdsB := cacheFixtureEdit(t)
		ch := session.Checker(trB, vclock.DefaultModel(2), Options{})
		report, err := ch.CheckPatch("b", fdsB)
		if err != nil {
			t.Fatalf("CheckPatch B: %v", err)
		}
		return report
	}
	cold := checkB(false)
	warm := checkB(true)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("patch B's report depends on cache warmth:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// Sharing a session across checkers must actually produce cache hits:
// re-checking the same content (a re-run, or a revert landing back on an
// already-seen tree state) recomputes nothing, and the savings ledger
// moves.
func TestResultCacheSharedAcrossCheckers(t *testing.T) {
	base := fixtureTree()
	session, err := NewSession(base)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	var reports []*PatchReport
	for i := 0; i < 2; i++ {
		tr, fds := cacheFixtureEdit(t)
		ch := session.Checker(tr, vclock.DefaultModel(7), Options{})
		report, err := ch.CheckPatch("p", fds)
		if err != nil {
			t.Fatalf("CheckPatch %d: %v", i, err)
		}
		reports = append(reports, report)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatal("re-check of identical content produced a different report")
	}
	st, ok := session.ResultCacheStats()
	if !ok {
		t.Fatal("session cache disabled by default")
	}
	if st.MakeI.Hits == 0 || st.MakeO.Hits == 0 {
		t.Fatalf("re-check produced no hits: %+v", st)
	}
	if st.SavedVirtual <= 0 {
		t.Fatalf("no effective savings recorded: %+v", st)
	}
}

// The warm ledgers are series in the session registry: re-checking the
// same content serves its valuations from the warm cache, which raises
// warm_saved_ns{ledger=config}, and SavedEffective sums both ledgers with
// the result cache's saved total.
func TestWarmSavedSeriesInRegistry(t *testing.T) {
	session, err := NewSession(fixtureTree())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	config := session.Metrics().Counter("warm_saved_ns", metrics.L("ledger", "config"))
	setup := session.Metrics().Counter("warm_saved_ns", metrics.L("ledger", "setup"))
	var after []time.Duration
	for i := 0; i < 2; i++ {
		tr, fds := cacheFixtureEdit(t)
		if _, err := session.Checker(tr, vclock.DefaultModel(7), Options{}).CheckPatch("p", fds); err != nil {
			t.Fatalf("CheckPatch %d: %v", i, err)
		}
		after = append(after, config.Duration())
	}
	if after[1] <= after[0] {
		t.Fatalf("second check left warm_saved_ns{ledger=config} at %v (first %v)", after[1], after[0])
	}
	st, _ := session.ResultCacheStats()
	if got, want := session.SavedEffective(), config.Duration()+setup.Duration()+st.SavedVirtual; got != want {
		t.Fatalf("SavedEffective = %v, want %v", got, want)
	}
}

// SetResultCache(nil) must disable cleanly: no stats, identical behavior.
func TestSetResultCacheNil(t *testing.T) {
	base := fixtureTree()
	session, err := NewSession(base)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	session.SetResultCache(nil)
	if _, ok := session.ResultCacheStats(); ok {
		t.Fatal("stats reported for a disabled cache")
	}
	tr, fds := cacheFixtureEdit(t)
	ch := session.Checker(tr, vclock.DefaultModel(1), Options{})
	if _, err := ch.CheckPatch("test", fds); err != nil {
		t.Fatalf("CheckPatch without cache: %v", err)
	}
}
