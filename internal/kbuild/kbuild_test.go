package kbuild

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"jmake/internal/cpp"
	"jmake/internal/fstree"
	"jmake/internal/kconfig"
	"jmake/internal/vclock"
)

// testTree builds a miniature two-arch kernel tree by hand.
func testTree(t *testing.T) *fstree.Tree {
	t.Helper()
	tr := fstree.New()
	tr.Write("Kbuild.meta", `
setupops x86_64 84
setupops arm 63
brokenarch score
wholebuild arch/powerpc/kernel/prom_init.c
setupfile include/linux/compiler_setup.h
`)
	tr.Write("Makefile", "obj-y += drivers/ net/ arch/$(SRCARCH)/\n")
	tr.Write("drivers/Makefile", "obj-y += net/\nobj-$(CONFIG_USB) += usb/\n")
	tr.Write("drivers/net/Makefile", `
obj-$(CONFIG_NETDRV) += netdrv.o
obj-$(CONFIG_BONDING) += bonding.o
bonding-objs := bond_main.o bond_alb.o
`)
	tr.Write("drivers/usb/Makefile", "obj-$(CONFIG_USB_STORAGE) += storage.o\n")
	tr.Write("net/Makefile", "obj-$(CONFIG_NET) += core.o\n")
	tr.Write("arch/x86_64/Makefile", "obj-y += kernel/\n")
	tr.Write("arch/x86_64/kernel/Makefile", "obj-y += setup.o\n")
	tr.Write("arch/x86_64/Kconfig", "config X86_64\n\tbool \"x86_64\"\n\tdefault y\n")
	tr.Write("arch/x86_64/include/asm/io.h",
		"#ifndef ASM_IO_H\n#define ASM_IO_H\nextern void outw(int v, unsigned long a);\n#endif\n")
	tr.Write("arch/arm/Makefile", "obj-y += kernel/\n")
	tr.Write("arch/arm/kernel/Makefile", "obj-y += entry.o\n")
	tr.Write("arch/arm/Kconfig", "config ARM\n\tbool \"arm\"\n\tdefault y\n")
	tr.Write("arch/arm/include/asm/io.h",
		"#ifndef ASM_IO_H\n#define ASM_IO_H\nextern void outw(int v, unsigned long a);\nextern void arm_special(void);\n#endif\n")
	tr.Write("arch/score/Makefile", "obj-y += kernel/\n")
	tr.Write("arch/score/Kconfig", "config SCORE\n\tbool \"score\"\n\tdefault y\n")

	tr.Write("include/linux/types.h", "#ifndef TYPES_H\n#define TYPES_H\ntypedef unsigned int u32;\n#endif\n")
	tr.Write("drivers/net/netdrv.c", `#include <linux/types.h>
#include <asm/io.h>
int netdrv_probe(void)
{
	outw(1, 0x40);
	return 0;
}
`)
	tr.Write("drivers/net/bond_main.c", "#include <linux/types.h>\nint bond_init(void)\n{\n\treturn 0;\n}\n")
	tr.Write("drivers/net/bond_alb.c", "int bond_alb(void)\n{\n\treturn 1;\n}\n")
	tr.Write("drivers/usb/storage.c", "int storage_probe(void)\n{\n\treturn 0;\n}\n")
	tr.Write("net/core.c", "int net_core(void)\n{\n\treturn 0;\n}\n")
	tr.Write("arch/x86_64/kernel/setup.c", "int setup_arch(void)\n{\n\treturn 0;\n}\n")
	tr.Write("arch/arm/kernel/entry.c", "#include <asm/io.h>\nint entry(void)\n{\n\tarm_special();\n\treturn 0;\n}\n")
	return tr
}

// cfgWith returns a Config with the given variables set to y.
func cfgWith(names ...string) *kconfig.Config {
	c := &kconfig.Config{}
	for _, n := range names {
		c.Set(n, kconfig.Yes)
	}
	return c
}

func newTestBuilder(t *testing.T, tr *fstree.Tree, archName string, cfg *kconfig.Config) *Builder {
	t.Helper()
	meta, err := LoadMeta(tr)
	if err != nil {
		t.Fatalf("LoadMeta: %v", err)
	}
	arches := DiscoverArches(tr, meta)
	a, ok := arches[archName]
	if !ok {
		t.Fatalf("arch %s not discovered", archName)
	}
	b, err := NewBuilder(tr, a, cfg, meta, vclock.DefaultModel(1))
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	return b
}

func TestParseMakefile(t *testing.T) {
	mf := ParseMakefile("drivers/net/Makefile", `
# comment
obj-y += always.o sub/
obj-m += mod.o
obj-$(CONFIG_FOO) += foo.o
bar-objs := bar_a.o bar_b.o
obj-$(CONFIG_BAR) += bar.o
`, "x86_64")
	if len(mf.Objs) != 4 {
		t.Fatalf("Objs = %d, want 4: %+v", len(mf.Objs), mf.Objs)
	}
	if mf.Objs[0].CondVar != "" || mf.Objs[0].Module {
		t.Errorf("obj-y rule = %+v", mf.Objs[0])
	}
	if !mf.Objs[1].Module {
		t.Errorf("obj-m rule = %+v", mf.Objs[1])
	}
	if mf.Objs[2].CondVar != "FOO" {
		t.Errorf("CondVar = %q", mf.Objs[2].CondVar)
	}
	if got := mf.Composites["bar"]; !reflect.DeepEqual(got, []string{"bar_a.o", "bar_b.o"}) {
		t.Errorf("Composites[bar] = %v", got)
	}
	if !reflect.DeepEqual(mf.ConfigVars, []string{"FOO", "BAR"}) {
		t.Errorf("ConfigVars = %v", mf.ConfigVars)
	}
	// Composite member resolves to the composite's rule.
	rule, ok := mf.ruleFor("bar_a.o")
	if !ok || rule.CondVar != "BAR" {
		t.Errorf("ruleFor(bar_a.o) = %+v, %v", rule, ok)
	}
}

func TestSrcArchSubstitution(t *testing.T) {
	mf := ParseMakefile("Makefile", "obj-y += arch/$(SRCARCH)/\n", "arm")
	rule, ok := mf.ruleFor("arch/arm/")
	if !ok || rule.CondVar != "" {
		t.Errorf("ruleFor(arch/arm/) = %+v, %v", rule, ok)
	}
}

func TestGatingConfigs(t *testing.T) {
	tr := testTree(t)
	tests := []struct {
		file string
		want []string
	}{
		{"drivers/net/netdrv.c", []string{"NETDRV"}},
		{"drivers/net/bond_main.c", []string{"BONDING"}}, // via composite
		{"net/core.c", []string{"NET"}},
		// setup.o is obj-y: fallback takes every var in the Makefile (none).
		{"arch/x86_64/kernel/setup.c", []string{}},
	}
	for _, tt := range tests {
		got, err := GatingConfigs(tr, tt.file, "x86_64")
		if err != nil {
			t.Fatalf("GatingConfigs(%s): %v", tt.file, err)
		}
		if len(got) == 0 && len(tt.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("GatingConfigs(%s) = %v, want %v", tt.file, got, tt.want)
		}
	}
}

func TestGatingConfigsNoMakefile(t *testing.T) {
	tr := fstree.New()
	tr.Write("orphan/file.c", "int x;\n")
	if _, err := GatingConfigs(tr, "orphan/file.c", "x86_64"); !errors.Is(err, ErrNoMakefile) {
		t.Errorf("err = %v, want ErrNoMakefile", err)
	}
}

func TestLoadMeta(t *testing.T) {
	tr := testTree(t)
	meta, err := LoadMeta(tr)
	if err != nil {
		t.Fatalf("LoadMeta: %v", err)
	}
	if meta.SetupOpsByArch["x86_64"] != 84 || meta.SetupOpsByArch["arm"] != 63 {
		t.Errorf("SetupOpsByArch = %v", meta.SetupOpsByArch)
	}
	if !meta.BrokenArches["score"] {
		t.Error("score should be broken")
	}
	if !meta.WholeBuildFiles["arch/powerpc/kernel/prom_init.c"] {
		t.Error("wholebuild file missing")
	}
	if !meta.SetupFiles["include/linux/compiler_setup.h"] {
		t.Error("setup file missing")
	}
}

func TestLoadMetaMissingIsEmpty(t *testing.T) {
	meta, err := LoadMeta(fstree.New())
	if err != nil {
		t.Fatalf("LoadMeta: %v", err)
	}
	if len(meta.BrokenArches) != 0 {
		t.Errorf("meta = %+v, want empty", meta)
	}
}

func TestDiscoverArches(t *testing.T) {
	tr := testTree(t)
	meta, _ := LoadMeta(tr)
	arches := DiscoverArches(tr, meta)
	if len(arches) != 3 {
		t.Fatalf("found %d arches, want 3: %v", len(arches), arches)
	}
	x86 := arches["x86_64"]
	if x86.SetupOps != 84 {
		t.Errorf("x86_64 SetupOps = %d", x86.SetupOps)
	}
	if !arches["score"].Broken {
		t.Error("score should be Broken")
	}
	names := ArchNames(arches)
	if names[0] != "x86_64" {
		t.Errorf("ArchNames[0] = %s, want x86_64 (host first)", names[0])
	}
	if !reflect.DeepEqual(names[1:], []string{"arm", "score"}) {
		t.Errorf("ArchNames rest = %v", names[1:])
	}
}

func TestBrokenArchRefused(t *testing.T) {
	tr := testTree(t)
	meta, _ := LoadMeta(tr)
	arches := DiscoverArches(tr, meta)
	_, err := NewBuilder(tr, arches["score"], cfgWith(), meta, vclock.DefaultModel(1))
	if !errors.Is(err, ErrBrokenArch) {
		t.Errorf("err = %v, want ErrBrokenArch", err)
	}
}

func TestReachable(t *testing.T) {
	tr := testTree(t)
	b := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET", "USB"))

	if v, err := b.Reachable("drivers/net/netdrv.c"); err != nil || v != kconfig.Yes {
		t.Errorf("netdrv.c: %v, %v", v, err)
	}
	// BONDING unset: composite members unreachable.
	if _, err := b.Reachable("drivers/net/bond_main.c"); !errors.Is(err, ErrNotReachable) {
		t.Errorf("bond_main.c err = %v, want ErrNotReachable", err)
	}
	// USB dir enabled but USB_STORAGE off.
	if _, err := b.Reachable("drivers/usb/storage.c"); !errors.Is(err, ErrNotReachable) {
		t.Errorf("storage.c err = %v, want ErrNotReachable", err)
	}
	// Own arch reachable; foreign arch not.
	if _, err := b.Reachable("arch/x86_64/kernel/setup.c"); err != nil {
		t.Errorf("setup.c err = %v", err)
	}
	if _, err := b.Reachable("arch/arm/kernel/entry.c"); !errors.Is(err, ErrNotReachable) {
		t.Errorf("entry.c err = %v, want ErrNotReachable", err)
	}
}

func TestReachableDirGated(t *testing.T) {
	tr := testTree(t)
	// Disable the usb/ directory itself.
	b := newTestBuilder(t, tr, "x86_64", cfgWith("USB_STORAGE"))
	if _, err := b.Reachable("drivers/usb/storage.c"); !errors.Is(err, ErrNotReachable) {
		t.Errorf("err = %v, want ErrNotReachable (directory gated)", err)
	}
}

func TestModuleValue(t *testing.T) {
	tr := testTree(t)
	cfg := &kconfig.Config{}
	cfg.Set("NETDRV", kconfig.Mod)
	b := newTestBuilder(t, tr, "x86_64", cfg)
	v, err := b.Reachable("drivers/net/netdrv.c")
	if err != nil || v != kconfig.Mod {
		t.Errorf("modular file: %v, %v", v, err)
	}
}

func TestMakeI(t *testing.T) {
	tr := testTree(t)
	b := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"))
	results, dur := b.MakeI([]string{"drivers/net/netdrv.c", "net/core.c", "drivers/usb/storage.c"})
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil {
		t.Errorf("netdrv.i: %v", results[0].Err)
	}
	if !strings.Contains(results[0].Text, "netdrv_probe") {
		t.Errorf("netdrv.i missing content")
	}
	if results[0].Work.Includes != 3 {
		t.Errorf("netdrv.i Includes = %d, want 3", results[0].Work.Includes)
	}
	if results[1].Err != nil {
		t.Errorf("core.i: %v", results[1].Err)
	}
	if results[2].Err == nil {
		t.Error("storage.i should fail (unreachable)")
	}
	if dur <= 0 {
		t.Errorf("duration = %v", dur)
	}
	// Second invocation must be cheaper (set-up already paid).
	_, dur2 := b.MakeI([]string{"net/core.c"})
	if dur2 >= dur {
		t.Errorf("second MakeI (%v) should be cheaper than first (%v)", dur2, dur)
	}
}

func TestMakeIModuleDefines(t *testing.T) {
	tr := testTree(t)
	tr.Write("drivers/net/netdrv.c", `#ifdef MODULE
int module_only;
#endif
int always;
`)
	cfg := &kconfig.Config{}
	cfg.Set("NETDRV", kconfig.Mod)
	b := newTestBuilder(t, tr, "x86_64", cfg)
	results, _ := b.MakeI([]string{"drivers/net/netdrv.c"})
	if results[0].Err != nil {
		t.Fatalf("MakeI: %v", results[0].Err)
	}
	if !strings.Contains(results[0].Text, "module_only") {
		t.Error("MODULE should be defined for modular builds")
	}

	// Built-in build: MODULE undefined.
	b2 := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV"))
	results2, _ := b2.MakeI([]string{"drivers/net/netdrv.c"})
	if strings.Contains(results2[0].Text, "module_only") {
		t.Error("MODULE must not be defined for built-in builds")
	}
}

func TestMakeO(t *testing.T) {
	tr := testTree(t)
	b := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV"))
	obj, dur, err := b.MakeO("drivers/net/netdrv.c")
	if err != nil {
		t.Fatalf("MakeO: %v", err)
	}
	if obj.Functions != 1 {
		t.Errorf("Functions = %d", obj.Functions)
	}
	if dur <= 0 {
		t.Errorf("duration = %v", dur)
	}
}

func TestMakeOFailsOnMissingDeclaration(t *testing.T) {
	tr := testTree(t)
	// entry.c calls arm_special(), declared only in arm's asm/io.h. Put an
	// equivalent file on the x86 side to show the cross-arch failure.
	tr.Write("drivers/net/netdrv.c", "#include <asm/io.h>\nint probe(void)\n{\n\tarm_special();\n\treturn 0;\n}\n")
	b := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV"))
	if _, _, err := b.MakeO("drivers/net/netdrv.c"); err == nil {
		t.Error("MakeO should fail: arm_special undeclared on x86_64")
	}
	// The same file compiles for arm.
	barm := newTestBuilder(t, tr, "arm", cfgWith("NETDRV", "NET"))
	if _, _, err := barm.MakeO("drivers/net/netdrv.c"); err != nil {
		t.Errorf("MakeO on arm: %v", err)
	}
}

func TestMakeOMutatedFileFails(t *testing.T) {
	tr := testTree(t)
	tr.Write("drivers/net/netdrv.c", "int probe(void)\n{\n\t@\"other:drivers/net/netdrv.c:3\"\n\treturn 0;\n}\n")
	b := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV"))
	if _, _, err := b.MakeO("drivers/net/netdrv.c"); err == nil {
		t.Error("MakeO should reject the mutation character")
	}
	// But MakeI must succeed and carry the mutation through.
	b2 := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV"))
	results, _ := b2.MakeI([]string{"drivers/net/netdrv.c"})
	if results[0].Err != nil {
		t.Fatalf("MakeI: %v", results[0].Err)
	}
	if !strings.Contains(results[0].Text, `@"other:drivers/net/netdrv.c:3"`) {
		t.Error("mutation missing from .i output")
	}
}

func TestWholeBuildFileCost(t *testing.T) {
	tr := testTree(t)
	tr.Write("arch/powerpc/Makefile", "obj-y += kernel/\n")
	tr.Write("arch/powerpc/Kconfig", "config PPC\n\tbool \"ppc\"\n\tdefault y\n")
	tr.Write("arch/powerpc/kernel/Makefile", "obj-y += prom_init.o\n")
	tr.Write("arch/powerpc/kernel/prom_init.c", "int prom_init(void)\n{\n\treturn 0;\n}\n")
	meta, _ := LoadMeta(tr)
	arches := DiscoverArches(tr, meta)
	b, err := NewBuilder(tr, arches["powerpc"], cfgWith(), meta, vclock.DefaultModel(1))
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	_, dur, err := b.MakeO("arch/powerpc/kernel/prom_init.c")
	if err != nil {
		t.Fatalf("MakeO: %v", err)
	}
	if dur < 10*time.Second {
		t.Errorf("prom_init.c MakeO = %v, want whole-kernel cost", dur)
	}
}

func TestIsSetupFile(t *testing.T) {
	tr := testTree(t)
	b := newTestBuilder(t, tr, "x86_64", cfgWith())
	if !b.Meta.SetupFiles["include/linux/compiler_setup.h"] {
		t.Error("setup file not flagged")
	}
	if b.Meta.SetupFiles["net/core.c"] {
		t.Error("normal file flagged as setup")
	}
}

func TestLoadMakefileKbuildFallback(t *testing.T) {
	tr := fstree.New()
	tr.Write("drivers/misc/Kbuild", "obj-$(CONFIG_MISC) += misc.o\n")
	mf, err := LoadMakefile(tr, "drivers/misc", "x86_64")
	if err != nil {
		t.Fatalf("LoadMakefile: %v", err)
	}
	if mf.Path != "drivers/misc/Kbuild" {
		t.Errorf("Path = %s", mf.Path)
	}
	rule, ok := mf.ruleFor("misc.o")
	if !ok || rule.CondVar != "MISC" {
		t.Errorf("ruleFor = %+v, %v", rule, ok)
	}
}

func TestMakefilePrefersOverKbuild(t *testing.T) {
	tr := fstree.New()
	tr.Write("d/Makefile", "obj-y += frommakefile.o\n")
	tr.Write("d/Kbuild", "obj-y += fromkbuild.o\n")
	mf, err := LoadMakefile(tr, "d", "x86_64")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mf.ruleFor("frommakefile.o"); !ok {
		t.Error("Makefile should win over Kbuild")
	}
}

func TestMakeIUnknownFile(t *testing.T) {
	tr := testTree(t)
	b := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV"))
	results, _ := b.MakeI([]string{"drivers/net/ghost.c"})
	if results[0].Err == nil {
		t.Error("preprocessing a missing file should fail")
	}
}

func TestBuilderTokenCacheConsistency(t *testing.T) {
	tr := testTree(t)
	b1 := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"))
	r1, _ := b1.MakeI([]string{"drivers/net/netdrv.c"})

	b2 := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"))
	b2.Cache = cpp.NewTokenCache()
	r2a, _ := b2.MakeI([]string{"drivers/net/netdrv.c"})
	r2b, _ := b2.MakeI([]string{"drivers/net/netdrv.c"})

	if r1[0].Err != nil || r2a[0].Err != nil || r2b[0].Err != nil {
		t.Fatalf("errors: %v / %v / %v", r1[0].Err, r2a[0].Err, r2b[0].Err)
	}
	if r2a[0].Text != r1[0].Text {
		t.Error("cached output differs from uncached")
	}
	if r2b[0].Text != r2a[0].Text {
		t.Error("second cached run differs from first")
	}
	if b2.Cache.Len() == 0 {
		t.Error("cache unused")
	}
}

func TestFileGate(t *testing.T) {
	tr := testTree(t)
	tr.Write("drivers/usb/Makefile", "obj-$(CONFIG_USB_STORAGE) += storage.o\nobj-m += gadget.o\n")
	tr.Write("drivers/usb/gadget.c", "int gadget(void)\n{\n\treturn 0;\n}\n")

	cases := []struct {
		file     string
		wantVars []string
		wantOwn  string
		wantMod  bool
	}{
		{"drivers/net/netdrv.c", []string{"NETDRV"}, "NETDRV", false},
		{"drivers/net/bond_main.c", []string{"BONDING"}, "BONDING", false},
		{"drivers/usb/storage.c", []string{"USB", "USB_STORAGE"}, "USB_STORAGE", false},
		{"drivers/usb/gadget.c", []string{"USB"}, "", true},
		{"net/core.c", []string{"NET"}, "NET", false},
		{"arch/x86_64/kernel/setup.c", nil, "", false},
	}
	for _, c := range cases {
		g, err := fileGate(tr, c.file, "x86_64")
		if err != nil {
			t.Fatalf("FileGate(%s): %v", c.file, err)
		}
		if !reflect.DeepEqual(g.Vars, c.wantVars) {
			t.Errorf("FileGate(%s).Vars = %v, want %v", c.file, g.Vars, c.wantVars)
		}
		if g.OwnVar != c.wantOwn || g.OwnModule != c.wantMod {
			t.Errorf("FileGate(%s) own = %q/%v, want %q/%v",
				c.file, g.OwnVar, g.OwnModule, c.wantOwn, c.wantMod)
		}
	}

	if _, err := fileGate(tr, "drivers/net/orphan.c", "x86_64"); err == nil {
		t.Error("FileGate(orphan) should fail: no object rule")
	}
	if _, err := fileGate(tr, "sound/pci/hda.c", "x86_64"); err == nil {
		t.Error("FileGate(unlisted dir) should fail")
	}
	// The arm walk resolves $(SRCARCH) to arm: x86_64 files become invisible.
	if _, err := fileGate(tr, "arch/x86_64/kernel/setup.c", "arm"); err == nil {
		t.Error("FileGate(x86_64 file, arm walk) should fail")
	}
	if g, err := fileGate(tr, "arch/arm/kernel/entry.c", "arm"); err != nil || len(g.Vars) != 0 {
		t.Errorf("FileGate(arm entry) = %+v, %v", g, err)
	}
}
