package core

import (
	"reflect"
	"strings"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/textdiff"
	"jmake/internal/vclock"
)

func checkStatic(t *testing.T, tr *fstree.Tree, fds ...textdiff.FileDiff) *PatchReport {
	t.Helper()
	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{StaticPresence: true})
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	report, err := ch.CheckPatch("test", fds)
	if err != nil {
		t.Fatalf("CheckPatch: %v", err)
	}
	return report
}

// seedRegion rewrites a fixture file so the base (pre-patch) version
// already contains a conditional region around `body`, placed before the
// anchor line. The patch then edits only the region's interior, which is
// the interesting static case: changing the directive lines themselves is
// always live (cpp reads them whenever the enclosing region is compiled).
func seedRegion(t *testing.T, tr *fstree.Tree, path, anchor, open, body string) {
	t.Helper()
	old, err := tr.Read(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	seeded := strings.Replace(old, anchor, open+"\n"+body+"\n#endif\n"+anchor, 1)
	if seeded == old {
		t.Fatalf("anchor %q not found in %s", anchor, path)
	}
	tr.Write(path, seeded)
}

// A change entirely under #if 0 is proven dead before any build: the file
// is never handed to make, and the skip is counted.
func TestStaticDeadFileSkipsAllCompiles(t *testing.T) {
	tr := fixtureTree()
	seedRegion(t, tr, "drivers/net/netdrv.c", "\tdrv_read(v);",
		"#if 0", "\tprintk(\"dead\");")
	old, _ := tr.Read("drivers/net/netdrv.c")
	fd := applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(old, "printk(\"dead\")", "printk(\"still dead\")", 1))
	report := checkStatic(t, tr, fd)

	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusStaticDead {
		t.Fatalf("status = %v, want static-dead: %+v", f.Status, f)
	}
	if len(f.StaticDeadLines) == 0 || len(f.EscapedLines) != 0 || len(f.Escapes) != 0 {
		t.Errorf("dead=%v escaped=%v escapes=%v", f.StaticDeadLines, f.EscapedLines, f.Escapes)
	}
	if len(report.MakeIDurations) != 0 || len(report.MakeODurations) != 0 || len(report.ConfigDurations) != 0 {
		t.Errorf("statically dead patch still built: %d/%d/%d invocations",
			len(report.ConfigDurations), len(report.MakeIDurations), len(report.MakeODurations))
	}
	if report.StaticSkippedMakeI != 1 || report.StaticSkippedMakeO != 1 {
		t.Errorf("skip counters = %d/%d, want 1/1", report.StaticSkippedMakeI, report.StaticSkippedMakeO)
	}
	if len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("disagreements = %+v", report.StaticDynamicDisagreements)
	}
}

// A mixed patch: the live line is compiled and witnessed as usual, the dead
// region is pruned, and the verdict names the remainder statically dead.
func TestStaticMixedLiveAndDead(t *testing.T) {
	tr := fixtureTree()
	seedRegion(t, tr, "drivers/net/netdrv.c", "\tdrv_read(v);",
		"#if 0", "\tprintk(\"dead\");")
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "printk(\"dead\")", "printk(\"still dead\")", 1)
	edited = strings.Replace(edited, "0x40", "0x44", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkStatic(t, tr, fd)

	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusStaticDead {
		t.Fatalf("status = %v, want static-dead remainder: %+v", f.Status, f)
	}
	if len(f.CoveredLines) == 0 {
		t.Error("live changed line should be witnessed")
	}
	if len(f.StaticDeadLines) == 0 {
		t.Error("dead region should be reported")
	}
	if len(report.MakeIDurations) == 0 || len(report.MakeODurations) == 0 {
		t.Error("live line still requires a real build")
	}
	if report.StaticSkippedMakeI != 0 || report.StaticSkippedMakeO != 0 {
		t.Errorf("partially live files are not skipped: %d/%d",
			report.StaticSkippedMakeI, report.StaticSkippedMakeO)
	}
	if len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("disagreements = %+v", report.StaticDynamicDisagreements)
	}
}

// A dead-everywhere Kconfig region: DEBUG_EXTRA depends on an undeclared
// symbol, so no configuration of any architecture can enable it. The
// static pass proves it via the dependency constraint, not just #if 0.
func TestStaticDeadThroughKconfigDependency(t *testing.T) {
	tr := fixtureTree()
	seedRegion(t, tr, "drivers/net/netdrv.c", "\tdrv_read(v);",
		"#ifdef CONFIG_DEBUG_EXTRA", "\tprintk(\"dbg\");")
	old, _ := tr.Read("drivers/net/netdrv.c")
	fd := applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(old, "printk(\"dbg\")", "printk(\"dbg2\")", 1))
	report := checkStatic(t, tr, fd)

	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusStaticDead {
		t.Fatalf("status = %v, want static-dead: %+v", f.Status, f)
	}
	if len(report.MakeIDurations) != 0 {
		t.Errorf("unsatisfiable dependency chain still built %d times", len(report.MakeIDurations))
	}
	if len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("disagreements = %+v", report.StaticDynamicDisagreements)
	}
}

// #ifdef MODULE on a tristate-gated file is satisfiable (the file can build
// modular), so it must NOT be marked dead — it stays a classic escape, the
// static prediction (invisible under allyesconfig) matches the .i, and the
// cross-check stays clean.
func TestStaticModuleRegionStaysLiveAndAgrees(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/moddrv.c")
	edited := strings.Replace(old, "\treturn 0;",
		"#ifdef MODULE\n\tprintk(\"as module\");\n#endif\n\treturn 0;", 1)
	fd := applyEdit(t, tr, "drivers/net/moddrv.c", edited)
	report := checkStatic(t, tr, fd)

	f := findFile(t, report, "drivers/net/moddrv.c")
	if f.Status != StatusEscapes || len(f.Escapes) != 1 || f.Escapes[0].Reason != EscapeIfdefModule {
		t.Fatalf("outcome = %+v", f)
	}
	if len(f.StaticDeadLines) != 0 {
		t.Errorf("MODULE region wrongly proven dead: %v", f.StaticDeadLines)
	}
	if len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("disagreements = %+v", report.StaticDynamicDisagreements)
	}
}

// A clean visible change: predicted visible under host allyesconfig, and
// the .i witness agrees, so certification is reached with a clean
// cross-check.
func TestStaticPredictionMatchesWitness(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	fd := applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(old, "0x40", "0x48", 1))
	report := checkStatic(t, tr, fd)

	if !report.Certified() {
		t.Fatalf("not certified: %+v", report.Files)
	}
	if len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("disagreements = %+v", report.StaticDynamicDisagreements)
	}
	if report.StaticSkippedMakeI != 0 || report.StaticSkippedMakeO != 0 {
		t.Errorf("nothing was dead; skip counters = %d/%d",
			report.StaticSkippedMakeI, report.StaticSkippedMakeO)
	}
}

// Architecture ordering: armdrv.c is only reachable under arm, and the
// prediction knows it, so arm is tried before the (useless) host build and
// the patch certifies with fewer preprocessing invocations than the
// host-first default.
func TestStaticOrderingPrefersPredictedArch(t *testing.T) {
	baseline := func(static bool) *PatchReport {
		tr := fixtureTree()
		old, _ := tr.Read("drivers/net/armdrv.c")
		fd := applyEdit(t, tr, "drivers/net/armdrv.c",
			strings.Replace(old, "\treturn 0;", "\treturn 1;", 1))
		ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{StaticPresence: static})
		if err != nil {
			t.Fatalf("NewChecker: %v", err)
		}
		report, err := ch.CheckPatch("test", []textdiff.FileDiff{fd})
		if err != nil {
			t.Fatalf("CheckPatch: %v", err)
		}
		return report
	}
	with, without := baseline(true), baseline(false)
	for _, r := range []*PatchReport{with, without} {
		f := findFile(t, r, "drivers/net/armdrv.c")
		if f.Status != StatusCertified {
			t.Fatalf("outcome = %+v", f)
		}
	}
	if w, wo := len(with.MakeIDurations), len(without.MakeIDurations); w > wo {
		t.Errorf("predicted ordering used %d MakeI runs, host-first used %d", w, wo)
	}
	if len(with.ConfigDurations) >= len(without.ConfigDurations) {
		t.Errorf("predicted ordering should skip the host config: %d vs %d",
			len(with.ConfigDurations), len(without.ConfigDurations))
	}
	if len(with.StaticDynamicDisagreements) != 0 {
		t.Errorf("disagreements = %+v", with.StaticDynamicDisagreements)
	}
}

// Headers are pruned too: a header change under #if 0 triggers no candidate
// hunting at all.
func TestStaticDeadHeaderSkipsHunting(t *testing.T) {
	tr := fixtureTree()
	seedRegion(t, tr, "include/linux/netdev.h", "extern void *netdev_alloc(int size);",
		"#if 0", "extern void *netdev_dead(void);")
	oldH, _ := tr.Read("include/linux/netdev.h")
	fd := applyEdit(t, tr, "include/linux/netdev.h",
		strings.Replace(oldH, "netdev_dead(void)", "netdev_dead2(void)", 1))
	report := checkStatic(t, tr, fd)

	h := findFile(t, report, "include/linux/netdev.h")
	if h.Status != StatusStaticDead {
		t.Fatalf("status = %v, want static-dead: %+v", h.Status, h)
	}
	if h.ExtraCCompiles != 0 || len(report.MakeIDurations) != 0 {
		t.Errorf("dead header still hunted: extra=%d makeI=%d",
			h.ExtraCCompiles, len(report.MakeIDurations))
	}
	if report.StaticSkippedMakeI != 1 {
		t.Errorf("StaticSkippedMakeI = %d, want 1", report.StaticSkippedMakeI)
	}
}

// With the pre-pass off, nothing changes: no dead lines, no skip counters,
// no disagreements — the default pipeline is byte-for-byte the seed one.
func TestStaticOffLeavesReportUntouched(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#if 0\n\tprintk(\"dead\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkOne(t, tr, fd)

	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes || len(f.StaticDeadLines) != 0 {
		t.Errorf("outcome with pre-pass off = %+v", f)
	}
	if report.StaticSkippedMakeI != 0 || report.StaticSkippedMakeO != 0 ||
		len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("static fields populated without StaticPresence: %+v", report)
	}
}

// The three-branch chain from the satellite fix, end to end: under
// allyesconfig the first branch is taken, so a change in the second branch
// is predicted invisible, proven live (a defconfig could reach it), and the
// escape classification points at the satisfied earlier branch.
func TestStaticElifChainClassification(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifdef CONFIG_NETDRV\n\tdrv_read(v);\n#elif defined(CONFIG_MODDRV)\n\tprintk(\"second\");\n#else\n\tprintk(\"third\");\n#endif", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkStatic(t, tr, fd)

	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes {
		t.Fatalf("status = %v: %+v", f.Status, f)
	}
	if len(f.StaticDeadLines) != 0 {
		// NETDRV off + MODDRV on reaches the elif; NETDRV off + MODDRV off
		// reaches the else. Neither branch is dead.
		t.Errorf("elif chain wrongly dead: %v", f.StaticDeadLines)
	}
	for _, esc := range f.Escapes {
		if esc.Reason == EscapeOther {
			t.Errorf("chain-aware classifier left %+v unexplained", esc)
		}
	}
	if len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("disagreements = %+v", report.StaticDynamicDisagreements)
	}
}

// Inserting a fresh #if 0 region is the instructive boundary case: the
// directive lines themselves are read by cpp whenever the OUTER region is
// compiled, so their mutation is live and witnessed, while the interior
// lines (grouped with the closing #endif by region) are proven dead. The
// report must partition the changed lines accordingly.
func TestStaticInsertedIfZeroRegionPartition(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#if 0\n\tprintk(\"one\");\n\tprintk(\"two\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkStatic(t, tr, fd)

	lineOf := func(sub string) int {
		i := strings.Index(edited, sub)
		if i < 0 {
			t.Fatalf("%q not in edited file", sub)
		}
		return 1 + strings.Count(edited[:i], "\n")
	}
	open := lineOf("#if 0")

	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusStaticDead {
		t.Fatalf("status = %v: %+v", f.Status, f)
	}
	wantDead := []int{lineOf("printk(\"one\")"), lineOf("printk(\"two\")"), lineOf("#endif")}
	if !reflect.DeepEqual(f.StaticDeadLines, wantDead) {
		t.Errorf("StaticDeadLines = %v, want %v", f.StaticDeadLines, wantDead)
	}
	if !reflect.DeepEqual(f.CoveredLines, []int{open}) {
		t.Errorf("CoveredLines = %v, want [%d] (the #if 0 line itself)", f.CoveredLines, open)
	}
	if len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("disagreements = %+v", report.StaticDynamicDisagreements)
	}
}
