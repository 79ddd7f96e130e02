package core

import (
	"strings"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/textdiff"
	"jmake/internal/vclock"
)

// fixtureTree builds a miniature two-architecture kernel with enough
// Kconfig/Kbuild structure to exercise every checker path.
func fixtureTree() *fstree.Tree {
	tr := fstree.New()
	tr.Write("Kbuild.meta", `
setupops x86_64 84
setupops arm 63
setupfile include/linux/setuphdr.h
`)
	tr.Write("Makefile", "obj-y += drivers/ arch/$(SRCARCH)/\n")
	tr.Write("drivers/Makefile", "obj-y += net/\n")
	tr.Write("drivers/net/Makefile", `
obj-$(CONFIG_NETDRV) += netdrv.o
obj-$(CONFIG_ARMDRV) += armdrv.o
obj-$(CONFIG_MODDRV) += moddrv.o
`)
	tr.Write("Kconfig.shared", "source \"drivers/Kconfig\"\n")
	tr.Write("drivers/Kconfig", `
config NETDRV
	tristate "Net driver"

config MODDRV
	tristate "Modular driver"

config DEBUG_EXTRA
	bool "Extra debugging"
	depends on MISSING_DEP
`)
	tr.Write("arch/x86_64/Kconfig", "config X86_64\n\tbool \"x86_64\"\n\tdefault y\nsource \"Kconfig.shared\"\n")
	tr.Write("arch/x86_64/Makefile", "obj-y += kernel/\n")
	tr.Write("arch/x86_64/kernel/Makefile", "obj-y += setup.o\n")
	tr.Write("arch/x86_64/kernel/setup.c", "int setup_arch(void)\n{\n\treturn 0;\n}\n")
	tr.Write("arch/x86_64/include/asm/io.h",
		"#ifndef ASM_IO_H\n#define ASM_IO_H\nextern void outw(int v, unsigned long a);\n#endif\n")
	tr.Write("arch/arm/Kconfig", `config ARM
	bool "arm"
	default y
config ARMDRV
	tristate "ARM-specific driver"
source "Kconfig.shared"
`)
	tr.Write("arch/arm/Makefile", "obj-y += kernel/\n")
	tr.Write("arch/arm/kernel/Makefile", "obj-y += entry.o\n")
	tr.Write("arch/arm/kernel/entry.c", "int arm_entry(void)\n{\n\treturn 0;\n}\n")
	tr.Write("arch/arm/include/asm/io.h",
		"#ifndef ASM_IO_H\n#define ASM_IO_H\nextern void outw(int v, unsigned long a);\nextern void arm_cp15(void);\n#endif\n")
	tr.Write("include/linux/kernel.h", `#ifndef LINUX_KERNEL_H
#define LINUX_KERNEL_H
extern int printk(const char *fmt, ...);
#define pr_info(fmt, ...) printk(fmt, __VA_ARGS__)
#endif
`)
	tr.Write("include/linux/netdev.h", `#ifndef LINUX_NETDEV_H
#define LINUX_NETDEV_H
#define NETDEV_MAGIC_MUX(x) (((x) & 0xf) << 4)
extern void *netdev_alloc(int size);
#endif
`)
	tr.Write("include/linux/setuphdr.h", "#define SETUP_THING 1\n")
	tr.Write("drivers/net/netdrv.c", `#include <linux/kernel.h>
#include <linux/netdev.h>
#include <asm/io.h>

#define DRV_REG 0x04

static int drv_read(int reg)
{
	return reg + DRV_REG;
}

int drv_probe(void)
{
	void *p = netdev_alloc(64);
	int v = NETDEV_MAGIC_MUX(3);
	outw(v, 0x40);
	drv_read(v);
	printk("probed %d", v);
	if (!p)
		return 1;
	return 0;
}
`)
	tr.Write("drivers/net/armdrv.c", `#include <asm/io.h>

int armdrv_probe(void)
{
	arm_cp15();
	return 0;
}
`)
	tr.Write("drivers/net/moddrv.c", `#include <linux/kernel.h>

int moddrv_probe(void)
{
	return 0;
}
`)
	return tr
}

// applyEdit rewrites one file and returns the diff of the change.
func applyEdit(t *testing.T, tr *fstree.Tree, path, newContent string) textdiff.FileDiff {
	t.Helper()
	old, err := tr.Read(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	fd, changed := textdiff.Diff(path, path, old, newContent)
	if !changed {
		t.Fatalf("edit to %s changed nothing", path)
	}
	tr.Write(path, newContent)
	return fd
}

func newFixtureChecker(t *testing.T, tr *fstree.Tree) *Checker {
	t.Helper()
	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{})
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	return ch
}

func checkOne(t *testing.T, tr *fstree.Tree, fds ...textdiff.FileDiff) *PatchReport {
	t.Helper()
	ch := newFixtureChecker(t, tr)
	report, err := ch.CheckPatch("test", fds)
	if err != nil {
		t.Fatalf("CheckPatch: %v", err)
	}
	return report
}

func TestCheckCleanChange(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	fd := applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(old, "#define DRV_REG 0x04", "#define DRV_REG 0x08", 1))
	report := checkOne(t, tr, fd)

	if !report.Certified() {
		t.Fatalf("not certified: %+v", report.Files)
	}
	f := report.Files[0]
	if f.Status != StatusCertified || f.Mutations != 1 || f.FoundMutations != 1 {
		t.Errorf("outcome = %+v", f)
	}
	if len(f.UsedArches) != 1 || f.UsedArches[0] != "x86_64" {
		t.Errorf("UsedArches = %v", f.UsedArches)
	}
	if f.NeededBeyondHost {
		t.Error("host arch sufficed; NeededBeyondHost should be false")
	}
	if len(report.ConfigDurations) == 0 || len(report.MakeIDurations) == 0 || len(report.MakeODurations) == 0 {
		t.Errorf("durations missing: %d/%d/%d", len(report.ConfigDurations),
			len(report.MakeIDurations), len(report.MakeODurations))
	}
	if report.Total <= 0 {
		t.Errorf("Total = %v", report.Total)
	}
}

func TestCheckEscapeNotAllyes(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifdef CONFIG_DEBUG_EXTRA\n\tprintk(\"dbg %d\", v);\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkOne(t, tr, fd)

	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes {
		t.Fatalf("status = %v, want escapes: %+v", f.Status, f)
	}
	if len(f.Escapes) != 1 || f.Escapes[0].Reason != EscapeIfdefNotAllyes {
		t.Errorf("escapes = %+v", f.Escapes)
	}
}

func TestCheckEscapeNeverSet(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifdef CONFIG_TOTALLY_UNKNOWN\n\tprintk(\"x %d\", v);\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes || len(f.Escapes) != 1 || f.Escapes[0].Reason != EscapeIfdefNeverSet {
		t.Errorf("outcome = %+v", f)
	}
}

func TestCheckEscapeModule(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/moddrv.c")
	edited := strings.Replace(old, "\treturn 0;",
		"#ifdef MODULE\n\tprintk(\"as module\");\n#endif\n\treturn 0;", 1)
	// moddrv calls printk only in the new region; keep kernel.h included.
	fd := applyEdit(t, tr, "drivers/net/moddrv.c", edited)
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/moddrv.c")
	if f.Status != StatusEscapes || len(f.Escapes) != 1 || f.Escapes[0].Reason != EscapeIfdefModule {
		t.Errorf("outcome = %+v", f)
	}
}

func TestCheckEscapeIfndef(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifndef CONFIG_NETDRV\n\tprintk(\"unreachable\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes || len(f.Escapes) != 1 || f.Escapes[0].Reason != EscapeIfndefOrElse {
		t.Errorf("outcome = %+v", f)
	}
}

func TestCheckEscapeIfZero(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#if 0\n\tprintk(\"dead\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes || len(f.Escapes) != 1 || f.Escapes[0].Reason != EscapeIfZero {
		t.Errorf("outcome = %+v", f)
	}
}

func TestCheckEscapeUnusedMacro(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "#define DRV_REG 0x04",
		"#define DRV_REG 0x04\n#define DRV_UNUSED 0x99", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes || len(f.Escapes) != 1 || f.Escapes[0].Reason != EscapeUnusedMacro {
		t.Errorf("outcome = %+v", f)
	}
}

func TestCheckEscapeBothBranches(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);",
		"#ifdef CONFIG_NETDRV\n\tprintk(\"on\");\n#else\n\tprintk(\"off\");\n#endif\n\tdrv_read(v);", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusEscapes {
		t.Fatalf("outcome = %+v", f)
	}
	if len(f.Escapes) != 1 || f.Escapes[0].Reason != EscapeBothBranches {
		t.Errorf("escapes = %+v", f.Escapes)
	}
}

func TestCheckArchSpecificFile(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/armdrv.c")
	fd := applyEdit(t, tr, "drivers/net/armdrv.c",
		strings.Replace(old, "\treturn 0;", "\treturn 1;", 1))
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/armdrv.c")
	if f.Status != StatusCertified {
		t.Fatalf("outcome = %+v", f)
	}
	if !f.NeededBeyondHost || len(f.UsedArches) != 1 || f.UsedArches[0] != "arm" {
		t.Errorf("UsedArches = %v, NeededBeyondHost = %v", f.UsedArches, f.NeededBeyondHost)
	}
}

func TestCheckHeaderCoveredByPatchCFile(t *testing.T) {
	tr := fixtureTree()
	oldH, _ := tr.Read("include/linux/netdev.h")
	fdH := applyEdit(t, tr, "include/linux/netdev.h",
		strings.Replace(oldH, "<< 4)", "<< 5)", 1))
	oldC, _ := tr.Read("drivers/net/netdrv.c")
	fdC := applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(oldC, "0x40", "0x44", 1))
	report := checkOne(t, tr, fdC, fdH)

	if !report.Certified() {
		t.Fatalf("not certified: %+v", report.Files)
	}
	h := findFile(t, report, "include/linux/netdev.h")
	if !h.CoveredByPatchCs {
		t.Errorf("header should be covered by the patch's own .c: %+v", h)
	}
	if h.ExtraCCompiles != 0 {
		t.Errorf("ExtraCCompiles = %d, want 0", h.ExtraCCompiles)
	}
}

func TestCheckHeaderOnlyPatch(t *testing.T) {
	tr := fixtureTree()
	oldH, _ := tr.Read("include/linux/netdev.h")
	fdH := applyEdit(t, tr, "include/linux/netdev.h",
		strings.Replace(oldH, "<< 4)", "<< 6)", 1))
	report := checkOne(t, tr, fdH)

	h := findFile(t, report, "include/linux/netdev.h")
	if h.Status != StatusCertified {
		t.Fatalf("outcome = %+v (detail: %s)", h, h.FailureDetail)
	}
	if h.CoveredByPatchCs {
		t.Error("no .c files in patch; coverage must come from hunting")
	}
	if h.ExtraCCompiles < 1 {
		t.Errorf("ExtraCCompiles = %d, want >= 1", h.ExtraCCompiles)
	}
}

func TestCheckSetupFileUntreatable(t *testing.T) {
	tr := fixtureTree()
	oldH, _ := tr.Read("include/linux/setuphdr.h")
	fdH := applyEdit(t, tr, "include/linux/setuphdr.h",
		strings.Replace(oldH, "1", "2", 1))
	report := checkOne(t, tr, fdH)
	if !report.Untreatable {
		t.Fatal("patch touching a setup file must be untreatable")
	}
	if report.Certified() {
		t.Error("untreatable patches are not certified")
	}
	if report.Files[0].Status != StatusSetupFile {
		t.Errorf("status = %v", report.Files[0].Status)
	}
}

func TestCheckCommentOnlyPatch(t *testing.T) {
	tr := fixtureTree()
	oldC, _ := tr.Read("drivers/net/netdrv.c")
	fd := applyEdit(t, tr, "drivers/net/netdrv.c",
		strings.Replace(oldC, "#include <linux/kernel.h>",
			"/* updated copyright notice */\n#include <linux/kernel.h>", 1))
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusCommentOnly {
		t.Errorf("status = %v, want comment-only", f.Status)
	}
	if !report.Certified() {
		t.Error("comment-only patches are trivially certified")
	}
	if len(report.MakeIDurations) != 0 {
		t.Error("comment-only patches need no compilation")
	}
}

func TestCheckMultiFilePatchGroupsInvocations(t *testing.T) {
	tr := fixtureTree()
	old1, _ := tr.Read("drivers/net/netdrv.c")
	fd1 := applyEdit(t, tr, "drivers/net/netdrv.c", strings.Replace(old1, "0x40", "0x48", 1))
	old2, _ := tr.Read("drivers/net/moddrv.c")
	fd2 := applyEdit(t, tr, "drivers/net/moddrv.c", strings.Replace(old2, "return 0", "return 2", 1))
	report := checkOne(t, tr, fd1, fd2)
	if !report.Certified() {
		t.Fatalf("not certified: %+v", report.Files)
	}
	// Both .c files are preprocessed in ONE make invocation (paper §III-D).
	if len(report.MakeIDurations) != 1 {
		t.Errorf("MakeI invocations = %d, want 1", len(report.MakeIDurations))
	}
	// But each gets its own .o.
	if len(report.MakeODurations) != 2 {
		t.Errorf("MakeO invocations = %d, want 2", len(report.MakeODurations))
	}
}

func TestSelectArchesForArchFile(t *testing.T) {
	tr := fixtureTree()
	ch := newFixtureChecker(t, tr)
	choices := ch.selectArches("arch/arm/kernel/entry.c", true)
	if len(choices) != 1 || choices[0].Arch != "arm" {
		t.Errorf("choices = %+v", choices)
	}
}

func TestSelectArchesHostFirst(t *testing.T) {
	tr := fixtureTree()
	ch := newFixtureChecker(t, tr)
	choices := ch.selectArches("drivers/net/armdrv.c", true)
	if len(choices) < 2 {
		t.Fatalf("choices = %+v", choices)
	}
	if choices[0].Arch != "x86_64" {
		t.Errorf("first arch = %s, want x86_64 (simple make first)", choices[0].Arch)
	}
	found := false
	for _, c := range choices {
		if c.Arch == "arm" {
			found = true
		}
	}
	if !found {
		t.Errorf("arm not among candidates: %+v", choices)
	}
}

func findFile(t *testing.T, r *PatchReport, path string) FileOutcome {
	t.Helper()
	for _, f := range r.Files {
		if f.Path == path {
			return f
		}
	}
	t.Fatalf("file %s not in report: %+v", path, r.Files)
	return FileOutcome{}
}
