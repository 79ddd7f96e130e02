package core

import (
	"strings"
	"testing"

	"jmake/internal/textdiff"
	"jmake/internal/vclock"
)

// moduleEscapeEdit inserts a MODULE-guarded change into moddrv.c.
func moduleEscapeEdit(t *testing.T, tr interface {
	Read(string) (string, error)
	Write(string, string)
}) textdiff.FileDiff {
	t.Helper()
	old, err := tr.Read("drivers/net/moddrv.c")
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(old, "\treturn 0;",
		"#ifdef MODULE\n\tprintk(\"modular path\");\n#endif\n\treturn 0;", 1)
	fd, changed := textdiff.Diff("drivers/net/moddrv.c", "drivers/net/moddrv.c", old, edited)
	if !changed {
		t.Fatal("no change")
	}
	tr.Write("drivers/net/moddrv.c", edited)
	return fd
}

// The paper's §V-B proposal: allmodconfig covers #ifdef MODULE regions.
func TestAllModConfigRecoversModuleEscape(t *testing.T) {
	// Without the option: escapes.
	tr1 := fixtureTree()
	fd1 := moduleEscapeEdit(t, tr1)
	report1 := checkOne(t, tr1, fd1)
	f1 := findFile(t, report1, "drivers/net/moddrv.c")
	if f1.Status != StatusEscapes {
		t.Fatalf("baseline: status = %v, want escapes", f1.Status)
	}

	// With TryAllModConfig: certified via allmodconfig.
	tr2 := fixtureTree()
	fd2 := moduleEscapeEdit(t, tr2)
	ch, err := NewChecker(tr2, vclock.DefaultModel(1), Options{TryAllModConfig: true})
	if err != nil {
		t.Fatal(err)
	}
	report2, err := ch.CheckPatch("allmod", []textdiff.FileDiff{fd2})
	if err != nil {
		t.Fatal(err)
	}
	f2 := findFile(t, report2, "drivers/net/moddrv.c")
	if f2.Status != StatusCertified {
		t.Fatalf("with allmodconfig: status = %v (%s), want certified", f2.Status, f2.FailureDetail)
	}
	if !f2.UsedAllMod {
		t.Error("UsedAllMod should be set")
	}
	// The extra configuration costs extra invocations (paper: "nearly
	// doubling the set of configurations").
	if len(report2.ConfigDurations) <= len(report1.ConfigDurations) {
		t.Errorf("allmod run used %d configs, baseline %d — expected more",
			len(report2.ConfigDurations), len(report1.ConfigDurations))
	}
}

// The §VII proposal: diagnose doomed regions before building.
func TestPrescanWarnsBeforeBuilding(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifdef CONFIG_TOTALLY_UNKNOWN\n\tprintk(\"never\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)

	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{Prescan: true})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ch.CheckPatch("prescan", []textdiff.FileDiff{fd})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range report.PrescanWarnings {
		if w.Reason == EscapeIfdefNeverSet {
			found = true
		}
	}
	if !found {
		t.Errorf("prescan warnings = %+v, want never-set diagnosis", report.PrescanWarnings)
	}
}

// Prescan must stay silent for healthy changes.
func TestPrescanQuietOnCleanChange(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	fd := applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(old, "#define DRV_REG 0x04", "#define DRV_REG 0x0c", 1))

	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{Prescan: true})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ch.CheckPatch("clean", []textdiff.FileDiff{fd})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.PrescanWarnings) != 0 {
		t.Errorf("prescan warned on a clean change: %+v", report.PrescanWarnings)
	}
	if !report.Certified() {
		t.Error("clean change should certify")
	}
}

// The refined unused-macro analysis: an edit to a used macro's definition
// must not be classified as unused when it fails for other reasons.
func TestUsedMacroNotMisclassified(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	// DRV_REG is used by drv_read; edit it and check certification (the
	// mutation must be witnessed through the use site).
	fd := applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(old, "#define DRV_REG 0x04", "#define DRV_REG 0x10", 1))
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusCertified {
		t.Errorf("used-macro edit: %+v", f)
	}
}

// The §VII extension: #ifndef regions are covered by a synthesized
// configuration that turns the variable off — something neither
// allyesconfig nor any defconfig in the tree can do.
func TestCoverageConfigRecoversIfndef(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifndef CONFIG_MODDRV\n\tprintk(\"without moddrv\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)

	// Baseline: escapes (allyesconfig sets MODDRV=y).
	chBase, err := NewChecker(tr, vclock.DefaultModel(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rBase, err := chBase.CheckPatch("base", []textdiff.FileDiff{fd})
	if err != nil {
		t.Fatal(err)
	}
	if findFile(t, rBase, "drivers/net/netdrv.c").Status != StatusEscapes {
		t.Fatalf("baseline should escape: %+v", rBase.Files)
	}

	// With coverage configs: certified via a synthesized MODDRV=n config.
	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{CoverageConfigs: true})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ch.CheckPatch("cov", []textdiff.FileDiff{fd})
	if err != nil {
		t.Fatal(err)
	}
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusCertified {
		t.Fatalf("with coverage configs: %+v (%s)", f, f.FailureDetail)
	}
	if !f.UsedCoverageConfig {
		t.Error("UsedCoverageConfig should be set")
	}
}

// Both branches of an ifdef/else pair get covered across two synthesized
// configurations — the case the paper says plain JMake "never succeeds"
// on (§VII).
func TestCoverageConfigRecoversBothBranches(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifdef CONFIG_MODDRV\n\tprintk(\"with\");\n#else\n\tprintk(\"without\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)

	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{CoverageConfigs: true})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ch.CheckPatch("both", []textdiff.FileDiff{fd})
	if err != nil {
		t.Fatal(err)
	}
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusCertified {
		t.Fatalf("both branches should certify across two configs: %+v", f)
	}
}

// Hopeless regions stay uncovered: the synthesis cannot satisfy an
// undeclared dependency, so the escape diagnosis is preserved.
func TestCoverageConfigCannotFixNeverSet(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifdef CONFIG_TOTALLY_UNKNOWN\n\tprintk(\"never\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)

	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{CoverageConfigs: true})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ch.CheckPatch("hopeless", []textdiff.FileDiff{fd})
	if err != nil {
		t.Fatal(err)
	}
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes || len(f.Escapes) != 1 || f.Escapes[0].Reason != EscapeIfdefNeverSet {
		t.Errorf("outcome = %+v", f)
	}
}

// DEBUG_EXTRA depends on an undeclared MISSING_DEP, so even a targeted
// want cannot enable it; the synthesized config is detected as
// unsatisfiable without paying for a build.
func TestCoverageConfigUnsatisfiableDependency(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifdef CONFIG_DEBUG_EXTRA\n\tprintk(\"dbg\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)

	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{CoverageConfigs: true})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ch.CheckPatch("unsat", []textdiff.FileDiff{fd})
	if err != nil {
		t.Fatal(err)
	}
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes {
		t.Errorf("unsatisfiable want must stay an escape: %+v", f)
	}
}
