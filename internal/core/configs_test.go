package core

import (
	"sync"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/sched"
)

type configFixtureState struct {
	tree   *fstree.Tree
	arches map[string]*kbuild.Arch
}

// configFixture returns a provider plus the fixture's discovered arches.
func configFixture(t *testing.T) (*ConfigProvider, *configFixtureState) {
	t.Helper()
	tr := fixtureTree()
	meta, err := kbuild.LoadMeta(tr)
	if err != nil {
		t.Fatalf("LoadMeta: %v", err)
	}
	arches := kbuild.DiscoverArches(tr, meta)
	if len(arches) < 2 {
		t.Fatalf("fixture discovered %d arches, want >= 2", len(arches))
	}
	return NewConfigProvider(), &configFixtureState{tree: tr, arches: arches}
}

// An N-goroutine hammer on one key must elect exactly one computation:
// every caller gets the same *kconfig.Config (pointer identity proves a
// single valuation), misses == 1, hits == N-1. Run under -race this also
// proves the election publishes the value safely.
func TestConfigProviderConcurrentGetSingleComputation(t *testing.T) {
	p, fx := configFixture(t)
	arch := fx.arches["x86_64"]
	if arch == nil {
		t.Fatal("fixture has no x86_64 arch")
	}
	const goroutines = 32
	cfgs := make([]any, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg, symbols, err := p.Get(fx.tree, arch, ConfigChoice{Kind: ConfigAllYes}, nil)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if symbols <= 0 {
				t.Errorf("Get returned %d symbols", symbols)
			}
			cfgs[g] = cfg
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if cfgs[g] != cfgs[0] {
			t.Fatalf("goroutine %d received a different valuation object: two computations happened", g)
		}
	}
	st := p.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (single elected computation)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, goroutines-1)
	}
}

// Misses must equal the number of distinct keys at any worker count: the
// same mixed-key request stream through the sched pool at workers 1 and 8
// lands on identical counters (the worker-invariance the reproducible
// report depends on).
func TestConfigProviderMissesEqualDistinctKeysAcrossWorkers(t *testing.T) {
	for _, workers := range []int{1, 8} {
		p, fx := configFixture(t)
		var choices []struct {
			arch   *kbuild.Arch
			choice ConfigChoice
		}
		for _, name := range []string{"x86_64", "arm"} {
			arch := fx.arches[name]
			if arch == nil {
				t.Fatalf("fixture has no %s arch", name)
			}
			choices = append(choices,
				struct {
					arch   *kbuild.Arch
					choice ConfigChoice
				}{arch, ConfigChoice{Kind: ConfigAllYes}},
				struct {
					arch   *kbuild.Arch
					choice ConfigChoice
				}{arch, ConfigChoice{Kind: ConfigAllMod}},
			)
		}
		distinct := len(choices)
		const rounds = 8 // every key requested 8 times
		sched.Map(distinct*rounds, sched.Options{Workers: workers}, func(i int) error {
			c := choices[i%distinct]
			_, _, err := p.Get(fx.tree, c.arch, c.choice, nil)
			return err
		}, func(i int, err error) {
			if err != nil {
				t.Errorf("Get(%d): %v", i, err)
			}
		})
		st := p.Stats()
		if st.Misses != uint64(distinct) {
			t.Fatalf("workers=%d: misses = %d, want %d (distinct keys)", workers, st.Misses, distinct)
		}
		if st.Hits != uint64(distinct*(rounds-1)) {
			t.Fatalf("workers=%d: hits = %d, want %d", workers, st.Hits, distinct*(rounds-1))
		}
	}
}

// Structural classifies with the rules Session.Refresh invalidates by.
func TestStructuralClassification(t *testing.T) {
	structural := []string{
		kbuild.MetaPath,
		"arch/x86_64/configs/defconfig",
		"drivers/foo/Kconfig",
		"drivers/foo/Kconfig.debug",
		"drivers/foo/Makefile",
		"drivers/foo/Kbuild",
	}
	for _, p := range structural {
		if !Structural([]string{p}) {
			t.Errorf("Structural(%q) = false, want true", p)
		}
	}
	plain := [][]string{
		{"drivers/foo/main.c"},
		{"include/linux/top.h"},
		{"Documentation/Makefile.txt"},
		{},
	}
	for _, ps := range plain {
		if Structural(ps) {
			t.Errorf("Structural(%v) = true, want false", ps)
		}
	}
	// One structural path anywhere in the set flips the whole commit.
	if !Structural([]string{"drivers/foo/main.c", "drivers/foo/Kconfig"}) {
		t.Error("mixed change set not classified structural")
	}
}
