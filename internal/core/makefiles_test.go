package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/kernelgen"
	"jmake/internal/vclock"
)

// A check hands one MakefileCache, built over its pristine tree, to the
// builders of both trees (newPair). That is sound because the mutated tree
// differs from the pristine one only in .c and .h files, which no descent
// reads. Every .c file of a generated tree is mutated in a clone as
// CheckPatch mutates a patch's files; Reachable on the clone must answer
// through the pristine tree's cache exactly as through a fresh cache over
// the clone, value and error text alike, for every working architecture
// under allyesconfig and three seeded random configurations.
func TestSharedMakefileCacheOnMutatedClone(t *testing.T) {
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 7, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	mutated := tr.Clone()
	var files []string
	for _, p := range tr.Paths() {
		if !strings.HasSuffix(p, ".c") {
			continue
		}
		content, err := tr.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		changed := make([]int, countLines(content))
		for i := range changed {
			changed[i] = i + 1
		}
		res := Mutate(p, content, changed)
		if len(res.Mutations) == 0 {
			continue
		}
		mutated.Write(p, res.Content)
		files = append(files, p)
	}
	meta, err := kbuild.LoadMeta(tr)
	if err != nil {
		t.Fatal(err)
	}
	arches := kbuild.DiscoverArches(tr, meta)
	shared := kbuild.NewMakefileCache(tr)
	rng := rand.New(rand.NewSource(11))
	values := []kconfig.Value{kconfig.No, kconfig.Mod, kconfig.Yes}
	reached, unreached := 0, 0
	for _, name := range kbuild.ArchNames(arches) {
		arch := arches[name]
		if arch.Broken {
			continue
		}
		kt, err := kconfig.Parse(kbuild.TreeSource{T: tr}, arch.KconfigRoot)
		if err != nil {
			t.Fatalf("%s Kconfig: %v", name, err)
		}
		varSet := make(map[string]bool)
		for _, f := range files {
			if g, err := shared.FileGate(f, name); err == nil {
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
				cfg.Set(v, values[rng.Intn(len(values))])
			}
			cfgs = append(cfgs, cfg)
		}
		for ci, cfg := range cfgs {
			viaShared, err := kbuild.NewBuilder(mutated, arch, cfg, meta, vclock.DefaultModel(1))
			if err != nil {
				t.Fatal(err)
			}
			viaShared.Makefiles = shared
			fresh, err := kbuild.NewBuilder(mutated, arch, cfg, meta, vclock.DefaultModel(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				got, want := reachText(viaShared.Reachable(f)), reachText(fresh.Reachable(f))
				if got != want {
					t.Fatalf("[%s cfg %d] %s: pristine tree's cache %s, clone's own %s", name, ci, f, got, want)
				}
				if strings.HasPrefix(got, "error") {
					unreached++
				} else {
					reached++
				}
			}
		}
	}
	if reached == 0 || unreached == 0 {
		t.Fatalf("reached %d, unreached %d: want both outcomes checked", reached, unreached)
	}
}

// reachText renders one Reachable answer: the value, or the error text.
func reachText(v kconfig.Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(v)
}
