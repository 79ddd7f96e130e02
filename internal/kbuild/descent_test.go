package kbuild

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/kconfig"
	"jmake/internal/kernelgen"
	"jmake/internal/vclock"
)

// Reachable's error text reaches FileOutcome.FailureDetail and so every
// report; each exit of the descent is pinned here verbatim.
func TestReachableErrorTexts(t *testing.T) {
	tr := testTree(t)
	tr.Write("Makefile", "obj-y += drivers/ net/ lib/\nobj-$(CONFIG_ARCH_DIR) += arch/$(SRCARCH)/\n")
	tr.Write("lib/string.c", "int lib_string;\n")
	cases := []struct {
		name string
		cfg  *kconfig.Config
		file string
		want string
		is   error
	}{
		{"no Makefile", cfgWith("ARCH_DIR"), "lib/string.c",
			"kbuild: no Makefile found in lib", ErrNoMakefile},
		{"directory not listed", cfgWith("ARCH_DIR"), "sound/pci/hda.c",
			"kbuild: file not reachable in this build: sound/pci/hda.c not listed in Makefile", ErrNotReachable},
		{"foreign arch not listed", cfgWith("ARCH_DIR"), "arch/arm/kernel/entry.c",
			"kbuild: file not reachable in this build: arch/arm/kernel/entry.c not listed in Makefile", ErrNotReachable},
		{"no object rule", cfgWith("ARCH_DIR"), "drivers/net/orphan.c",
			"kbuild: file not reachable in this build: no rule for orphan.o in drivers/net/Makefile", ErrNotReachable},
		{"directory rule disabled", cfgWith("ARCH_DIR", "USB_STORAGE"), "drivers/usb/storage.c",
			"kbuild: file not reachable in this build: drivers/usb/storage.c disabled at drivers/Makefile", ErrNotReachable},
		{"disabled directory beats a later missing rule", cfgWith("ARCH_DIR"), "drivers/usb/ghost.c",
			"kbuild: file not reachable in this build: drivers/usb/ghost.c disabled at drivers/Makefile", ErrNotReachable},
		{"arch rule disabled", cfgWith(), "arch/x86_64/kernel/setup.c",
			"kbuild: file not reachable in this build: arch/x86_64/kernel/setup.c disabled at Makefile", ErrNotReachable},
		{"own rule disabled", cfgWith("ARCH_DIR"), "net/core.c",
			"kbuild: file not reachable in this build: rule for core.o disabled (CONFIG_NET=n)", ErrNotReachable},
	}
	for _, c := range cases {
		b := newTestBuilder(t, tr, "x86_64", c.cfg)
		v, err := b.Reachable(c.file)
		if err == nil {
			t.Errorf("%s: Reachable(%s) = %v, want error", c.name, c.file, v)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: err = %q, want %q", c.name, err, c.want)
		}
		if !errors.Is(err, c.is) || v != kconfig.No {
			t.Errorf("%s: err = %v (value %v), want %v and n", c.name, err, v, c.is)
		}
	}
}

// checkWalkAgreement asserts the contract between the configured and the
// configuration-free view of one descent: Reachable succeeds exactly when
// FileGate succeeds and every gate variable is enabled, and it answers Mod
// exactly when the file's own rule is obj-m or its own variable is m.
func checkWalkAgreement(t *testing.T, b *Builder, file string) {
	t.Helper()
	gate, gerr := fileGate(b.Tree, file, b.Arch.Name)
	v, err := b.Reachable(file)
	enabled := gerr == nil
	if enabled {
		for _, name := range gate.Vars {
			if b.Cfg.Value(name) == kconfig.No {
				enabled = false
			}
		}
	}
	if (err == nil) != enabled {
		t.Fatalf("[%s] %s: Reachable err = %v, but gate = %+v (err %v) says enabled=%v",
			b.Arch.Name, file, err, gate, gerr, enabled)
	}
	if err != nil {
		return
	}
	wantMod := gate.OwnModule || gate.OwnVar != "" && b.Cfg.Value(gate.OwnVar) == kconfig.Mod
	if (v == kconfig.Mod) != wantMod {
		t.Fatalf("[%s] %s: Reachable = %v, gate %+v wants module=%v", b.Arch.Name, file, v, gate, wantMod)
	}
}

// The property over a whole generated tree: every .c file, every working
// architecture, allyesconfig plus seeded random y/m/n assignments of the
// variables gating the tree's descent chains.
func TestReachableAgreesWithFileGate(t *testing.T) {
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 7, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, p := range tr.Paths() {
		if strings.HasSuffix(p, ".c") {
			files = append(files, p)
		}
	}
	meta, err := LoadMeta(tr)
	if err != nil {
		t.Fatal(err)
	}
	arches := DiscoverArches(tr, meta)
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for _, name := range ArchNames(arches) {
		arch := arches[name]
		if arch.Broken {
			continue
		}
		kt, err := kconfig.Parse(TreeSource{T: tr}, arch.KconfigRoot)
		if err != nil {
			t.Fatalf("%s Kconfig: %v", name, err)
		}
		varSet := make(map[string]bool)
		for _, f := range files {
			if g, err := fileGate(tr, f, name); err == nil {
				for _, v := range g.Vars {
					varSet[v] = true
				}
			}
		}
		vars := make([]string, 0, len(varSet))
		for v := range varSet {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		cfgs := []*kconfig.Config{kt.AllYesConfig()}
		for i := 0; i < 3; i++ {
			cfg := &kconfig.Config{}
			for _, v := range vars {
				cfg.Set(v, []kconfig.Value{kconfig.No, kconfig.Mod, kconfig.Yes}[rng.Intn(3)])
			}
			cfgs = append(cfgs, cfg)
		}
		for _, cfg := range cfgs {
			b, err := NewBuilder(tr, arch, cfg, meta, vclock.DefaultModel(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				checkWalkAgreement(t, b, f)
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no (file, arch, config) triple checked")
	}
}

// A composite that lists itself (foo-y := foo.o, with no obj- rule naming
// foo.o) used to recurse until the stack overflowed; every walk now ends in
// the ordinary "no rule" error.
func TestCompositeCycleEndsWalk(t *testing.T) {
	tr := testTree(t)
	tr.Write("drivers/net/Makefile", "obj-$(CONFIG_NETDRV) += netdrv.o\nfoo-y := foo.o\nbar-y := baz.o\nbaz-y := bar.o\n")
	tr.Write("drivers/net/foo.c", "int foo;\n")
	tr.Write("drivers/net/bar.c", "int bar;\n")
	b := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV"))
	for _, c := range []struct{ file, obj string }{
		{"drivers/net/foo.c", "foo.o"},
		{"drivers/net/bar.c", "bar.o"},
	} {
		want := "kbuild: file not reachable in this build: no rule for " + c.obj + " in drivers/net/Makefile"
		if _, err := b.Reachable(c.file); err == nil || err.Error() != want {
			t.Errorf("Reachable(%s) err = %v, want %q", c.file, err, want)
		}
		if _, err := fileGate(tr, c.file, "x86_64"); !errors.Is(err, ErrNotReachable) {
			t.Errorf("FileGate(%s) err = %v, want ErrNotReachable", c.file, err)
		}
		if _, err := GatingConfigs(tr, c.file, "x86_64"); err != nil {
			t.Errorf("GatingConfigs(%s): %v", c.file, err)
		}
		results, _ := b.MakeI([]string{c.file})
		if !errors.Is(results[0].Err, ErrNotReachable) {
			t.Errorf("MakeI(%s) err = %v, want ErrNotReachable", c.file, results[0].Err)
		}
	}
}

// Duplicated composite members must not make the gating heuristic's
// composite expansion exponential.
func TestGatingConfigsDuplicateMembers(t *testing.T) {
	tr := fstree.New()
	tr.Write("d/Makefile", "obj-$(CONFIG_A) += a.o\na-y := "+strings.Repeat("a.o ", 64)+"\n")
	got, err := GatingConfigs(tr, "d/a.c", "x86_64")
	if err != nil || !reflect.DeepEqual(got, []string{"A"}) {
		t.Errorf("GatingConfigs = %v, %v; want [A]", got, err)
	}
}

// An object listed in two composites (the shared-helper pattern) resolves
// to the composite named first in the makefile, on every lookup.
func TestSharedCompositeMemberIsStable(t *testing.T) {
	tr := testTree(t)
	tr.Write("drivers/net/Makefile", "obj-$(CONFIG_A) += a.o\nobj-$(CONFIG_B) += b.o\na-y := a_main.o helper.o\nb-y := b_main.o helper.o\n")
	tr.Write("drivers/net/helper.c", "int helper;\n")
	b := newTestBuilder(t, tr, "x86_64", cfgWith("A"))
	for i := 0; i < 200; i++ {
		g, err := fileGate(tr, "drivers/net/helper.c", "x86_64")
		if err != nil || g.OwnVar != "A" {
			t.Fatalf("lookup %d: gate = %+v, %v; want own variable A", i, g, err)
		}
		if _, err := b.Reachable("drivers/net/helper.c"); err != nil {
			t.Fatalf("lookup %d: Reachable: %v", i, err)
		}
	}
}

// memoHolds reports whether the parse memo has an entry for the makefile
// at mkPath in t.
func memoHolds(t *fstree.Tree, mkPath string) bool {
	content, _ := t.Read(mkPath)
	memo.Lock()
	defer memo.Unlock()
	_, ok := memo.parsed[memoKey{path: mkPath, content: content}]
	return ok
}

var fillGen atomic.Int64

// fillMemo parses n makefiles no earlier call parsed.
func fillMemo(n int) {
	gen := fillGen.Add(1)
	filler := fstree.New()
	for i := 0; i < n; i++ {
		dir := fmt.Sprintf("filler/d%d", i)
		filler.Write(dir+"/Makefile", fmt.Sprintf("obj-y += f%d_%d.o\n", gen, i))
		_, _ = LoadMakefile(filler, dir, "x86_64")
	}
}

// Parses are shared by content: editing a makefile in a clone changes the
// clone's answer and never the original's, before and after the memo is
// cleared.
func TestMemoIsolatesEditedClone(t *testing.T) {
	orig := testTree(t)
	clone := orig.Clone()
	clone.Write("drivers/net/Makefile", "obj-$(CONFIG_NET) += netdrv.o\n")
	cfg := cfgWith("NET")
	check := func(when string) {
		t.Helper()
		// Fresh builders, so their descent memos load the makefiles anew.
		bOrig := newTestBuilder(t, orig, "x86_64", cfg)
		bClone := newTestBuilder(t, clone, "x86_64", cfg)
		wantOrig := "kbuild: file not reachable in this build: rule for netdrv.o disabled (CONFIG_NETDRV=n)"
		if _, err := bOrig.Reachable("drivers/net/netdrv.c"); err == nil || err.Error() != wantOrig {
			t.Errorf("%s: original err = %v, want %q", when, err, wantOrig)
		}
		if v, err := bClone.Reachable("drivers/net/netdrv.c"); err != nil || v != kconfig.Yes {
			t.Errorf("%s: clone = %v, %v; want y", when, v, err)
		}
		if g, err := fileGate(orig, "drivers/net/netdrv.c", "x86_64"); err != nil || g.OwnVar != "NETDRV" {
			t.Errorf("%s: original gate = %+v, %v", when, g, err)
		}
		if g, err := fileGate(clone, "drivers/net/netdrv.c", "x86_64"); err != nil || g.OwnVar != "NET" {
			t.Errorf("%s: clone gate = %+v, %v", when, g, err)
		}
	}
	check("cold")
	check("warm")
	const mk = "drivers/net/Makefile"
	if !memoHolds(orig, mk) || !memoHolds(clone, mk) {
		t.Fatal("walks did not memoize both versions of the edited makefile")
	}
	for _, when := range []string{"after clear", "after second clear"} {
		fillMemo(memoLimit + 1)
		if memoHolds(orig, mk) || memoHolds(clone, mk) {
			t.Fatalf("%s: memo kept the tree's parses past its limit", when)
		}
		check(when)
	}
}

// Concurrent walks over a tree and its edited clones, racing the memo's
// clears, each see their own makefiles (run under -race in make race).
func TestMemoConcurrentWalks(t *testing.T) {
	const workers = 8
	orig := testTree(t)
	var wg sync.WaitGroup
	errs := make(chan error, workers) // each worker sends at most once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := orig
			want := "NETDRV"
			if w%2 == 1 {
				tr = orig.Clone()
				want = fmt.Sprintf("EDIT%d", w)
				tr.Write("drivers/net/Makefile", fmt.Sprintf("obj-$(CONFIG_%s) += netdrv.o\n", want))
			}
			for i := 0; i < 200; i++ {
				if w == 0 && i%50 == 0 {
					fillMemo(memoLimit / 4)
				}
				g, err := fileGate(tr, "drivers/net/netdrv.c", "x86_64")
				if err != nil || g.OwnVar != want {
					errs <- fmt.Errorf("worker %d: gate = %+v, %v; want %s", w, g, err, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
