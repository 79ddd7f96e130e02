package kbuild

import (
	"strings"
	"testing"

	"jmake/internal/kconfig"
)

// FuzzParseMakefile installs arbitrary text as a directory makefile in a
// small tree and walks every .o target the text names, under all-yes,
// all-module and empty configurations: the walk must never panic or hang,
// and Reachable must agree with FileGate (checkWalkAgreement).
func FuzzParseMakefile(f *testing.F) {
	f.Add("obj-y += core.o\nobj-$(CONFIG_KELPAX) += kelpax.o\nobj-$(CONFIG_GAMYORUL) += gamyorul.o\ngamyorul-objs := gamyorul_main.o gamyorul_hw.o\n")
	f.Add("# Kernel build entry point.\nobj-y += arch/$(SRCARCH)/\nobj-y += kernel/ mm/ lib/\nobj-m += mod.o sub/\n")
	f.Add("obj-$(CONFIG_USB) += usb/\nobj-$(CONFIG_NETDRV) += netdrv.o\nnetdrv-y += netdrv_main.o\n")
	f.Add("foo-y := foo.o\n")                                                                  // composite cycle
	f.Add("obj-$(CONFIG_A) += a.o\nobj-$(CONFIG_B) += b.o\na-y := x.o\nb-y := x.o\n")          // shared member
	f.Add("a-y := " + strings.Repeat("a.o ", 16) + "\nobj-$(CONFIG_$(ARCH)) += a.o ../up.o\n") // duplicates
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<12 {
			t.Skip("oversized input")
		}
		tr := testTree(t)
		tr.Write("drivers/net/Makefile", text)
		mf := ParseMakefile("drivers/net/Makefile", text, "x86_64")
		var objs []string
		for _, r := range mf.Objs {
			objs = append(objs, r.Targets...)
		}
		for _, comp := range mf.compOrder {
			objs = append(objs, comp+".o")
			objs = append(objs, mf.Composites[comp]...)
		}
		all := []string{"USB", "NET"}
		all = append(all, mf.ConfigVars...)
		yes, mod := cfgWith(all...), &kconfig.Config{}
		for _, v := range all {
			mod.Set(v, kconfig.Mod)
		}
		for _, cfg := range []*kconfig.Config{yes, mod, cfgWith()} {
			b := newTestBuilder(t, tr, "x86_64", cfg)
			for _, obj := range objs {
				if base, ok := strings.CutSuffix(obj, ".o"); ok {
					file := "drivers/net/" + base + ".c"
					checkWalkAgreement(t, b, file)
					_, _ = GatingConfigs(tr, file, "x86_64")
				}
			}
		}
	})
}
