package kbuild

import (
	"errors"
	"strings"
	"testing"
	"time"

	"jmake/internal/ccache"
	"jmake/internal/cpp"
	"jmake/internal/faultinject"
	"jmake/internal/fstree"
	"jmake/internal/kconfig"
	"jmake/internal/trace"
	"jmake/internal/vclock"
)

// cacheTree is testTree plus a transitive include chain (netdrv.c ->
// linux/chain.h -> linux/deep.h) and a second file with content identical
// to netdrv.c, for dedupe tests.
func cacheTree(t *testing.T) *fstree.Tree {
	t.Helper()
	tr := testTree(t)
	tr.Write("include/linux/chain.h", "#include <linux/deep.h>\n#define CHAIN 1\n")
	tr.Write("include/linux/deep.h", "#define DEEP 1\n")
	tr.Write("drivers/net/netdrv.c", "#include <linux/chain.h>\nint netdrv_probe(void)\n{\n\treturn DEEP;\n}\n")
	tr.Write("drivers/net/Makefile", `
obj-$(CONFIG_NETDRV) += netdrv.o
obj-$(CONFIG_NETDRV) += netdrv2.o
obj-$(CONFIG_BONDING) += bonding.o
bonding-objs := bond_main.o bond_alb.o
`)
	tr.Write("drivers/net/netdrv2.c", "#include <linux/chain.h>\nint netdrv_probe(void)\n{\n\treturn DEEP;\n}\n")
	return tr
}

func cachedBuilder(t *testing.T, tr *fstree.Tree, archName string, cfg *kconfig.Config, rc *ccache.Cache) *Builder {
	t.Helper()
	b := newTestBuilder(t, tr, archName, cfg)
	b.Results = rc
	return b
}

// A shared cache must serve byte-identical results and identical reported
// durations — the serve is invisible except in the cache counters.
func TestCacheMakeIHitEquality(t *testing.T) {
	tr := cacheTree(t)
	files := []string{"drivers/net/netdrv.c", "net/core.c", "drivers/usb/storage.c", "drivers/net/ghost.c"}

	// Baseline: cache off.
	off := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"))
	offRes, offDur := off.MakeI(files)

	rc := ccache.New()
	cold := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"), rc)
	coldRes, coldDur := cold.MakeI(files)
	warm := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"), rc)
	warmRes, warmDur := warm.MakeI(files)

	for i := range offRes {
		for name, got := range map[string][]IFile{"cold": coldRes, "warm": warmRes} {
			if got[i].Text != offRes[i].Text || got[i].Work != offRes[i].Work {
				t.Errorf("%s[%d]: payload differs from cache-off run", name, i)
			}
			gotErr, wantErr := "", ""
			if got[i].Err != nil {
				gotErr = got[i].Err.Error()
			}
			if offRes[i].Err != nil {
				wantErr = offRes[i].Err.Error()
			}
			if gotErr != wantErr {
				t.Errorf("%s[%d]: err %q, want %q", name, i, gotErr, wantErr)
			}
		}
	}
	if coldDur != offDur || warmDur != offDur {
		t.Errorf("durations differ: off=%v cold=%v warm=%v (must stay full price)", offDur, coldDur, warmDur)
	}
	st := rc.Stats()
	if st.MakeI.Hits == 0 {
		t.Error("warm builder never hit")
	}
	if st.SavedVirtual <= 0 {
		t.Error("hits must credit the effective-savings ledger")
	}
}

func TestCacheMakeOHitEquality(t *testing.T) {
	tr := cacheTree(t)
	off := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV"))
	offObj, offDur, offErr := off.MakeO("drivers/net/netdrv.c")
	if offErr != nil {
		t.Fatalf("MakeO: %v", offErr)
	}

	rc := ccache.New()
	cold := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV"), rc)
	coldObj, coldDur, coldErr := cold.MakeO("drivers/net/netdrv.c")
	warm := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV"), rc)
	warmObj, warmDur, warmErr := warm.MakeO("drivers/net/netdrv.c")
	if coldErr != nil || warmErr != nil {
		t.Fatalf("cached MakeO: %v / %v", coldErr, warmErr)
	}
	if coldObj.Lines != offObj.Lines || warmObj.Lines != offObj.Lines ||
		warmObj.Functions != offObj.Functions {
		t.Errorf("objects differ: off=%+v cold=%+v warm=%+v", offObj, coldObj, warmObj)
	}
	if coldDur != offDur || warmDur != offDur {
		t.Errorf("durations differ: off=%v cold=%v warm=%v", offDur, coldDur, warmDur)
	}
	if st := rc.Stats(); st.MakeO.Hits != 1 || st.MakeO.Misses != 1 {
		t.Errorf("MakeO counters = %+v", st.MakeO)
	}
}

// A panic between a missed probe and its store must release the probe
// key's in-flight slot. jmaked recovers a check's panic and keeps its
// session, so a stranded slot would block every later probe of the key.
func TestCachePanicReleasesProbe(t *testing.T) {
	const file = "drivers/net/netdrv.c"
	tr := cacheTree(t)
	for _, stage := range []ccache.Stage{ccache.StageI, ccache.StageO} {
		b := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"), ccache.New())
		v, err := b.Reachable(file)
		if err != nil {
			t.Fatal(err)
		}
		// A TokenCache not made by NewTokenCache panics on its first scan
		// (nil shard map), which stands in for a bug in cpp.Preprocess.
		opts := b.cppOptions(v == kconfig.Mod)
		opts.Cache = new(cpp.TokenCache)
		b.optsNonMod, b.optsMod = opts, opts
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stage %d: the broken token cache did not panic", stage)
				}
			}()
			if stage == ccache.StageI {
				b.MakeI([]string{file})
			} else {
				_, _, _ = b.MakeO(file)
			}
		}()
		done := make(chan *ccache.Probe, 1)
		go func() { done <- b.probe(stage, v == kconfig.Mod, file) }()
		select {
		case p := <-done:
			p.Cancel()
		case <-time.After(2 * time.Second):
			t.Fatalf("stage %d: a probe of the panicked key is still blocked after 2 s", stage)
		}
	}
}

// A make.o span carries the key its own probe computed, with the cache on
// or off. The plan breaks x86_64 on the 4th call; the calls after it
// return before probing, so no broken span may hold a cache-probe mark.
func TestMakeOTraceMarksCarryProbeKey(t *testing.T) {
	tr := cacheTree(t)
	for _, tc := range []struct {
		name string
		rc   *ccache.Cache
	}{{"cache", ccache.New()}, {"no-cache", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			b := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV"), tc.rc)
			b.Faults = faultinject.New(faultinject.Plan{Seed: 1, ArchBreakRate: 1}, "c1")
			b.Trace = trace.NewRecorder(trace.KindPatch, vclock.DefaultModel(1).NewClock())
			for i := 0; i < 8; i++ {
				_, _, _ = b.MakeO("drivers/net/netdrv.c")
			}
			var ok, broken int
			b.Trace.Finish().Walk(func(s *trace.Span) {
				if s.Kind != trace.KindMakeO {
					return
				}
				marks, keyed := 0, 0
				for _, c := range s.Children {
					if c.Kind == trace.KindCacheProbe {
						marks++
						if c.Key != 0 {
							keyed++
						}
					}
				}
				switch outcome, _ := s.Attr("outcome"); outcome {
				case "ok":
					ok++
					if marks != 1 || keyed != 1 {
						t.Errorf("ok make.o holds %d cache-probe marks (%d keyed), want 1 keyed", marks, keyed)
					}
				case "arch-broken":
					broken++
					if marks != 0 {
						t.Errorf("arch-broken make.o holds %d cache-probe marks, want none", marks)
					}
				}
			})
			if ok != 3 || broken != 5 {
				t.Fatalf("%d ok and %d arch-broken make.o spans, want 3 and 5", ok, broken)
			}
		})
	}
}

// Compile failures are memoized too, with the exact error text.
func TestCacheMakeOFailureMemoized(t *testing.T) {
	tr := cacheTree(t)
	tr.Write("drivers/net/netdrv.c", "int probe(void)\n{\n\t@\"other:drivers/net/netdrv.c:3\"\n\treturn 0;\n}\n")
	off := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV"))
	_, offDur, offErr := off.MakeO("drivers/net/netdrv.c")
	if offErr == nil {
		t.Fatal("baseline should fail")
	}

	rc := ccache.New()
	cold := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV"), rc)
	_, _, coldErr := cold.MakeO("drivers/net/netdrv.c")
	warm := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV"), rc)
	_, warmDur, warmErr := warm.MakeO("drivers/net/netdrv.c")
	if coldErr == nil || warmErr == nil {
		t.Fatal("cached runs should fail too")
	}
	if coldErr.Error() != offErr.Error() || warmErr.Error() != offErr.Error() {
		t.Errorf("error text drifted: off=%q cold=%q warm=%q", offErr, coldErr, warmErr)
	}
	if warmDur != offDur {
		t.Errorf("failure duration %v, want full price %v", warmDur, offDur)
	}
	if st := rc.Stats(); st.MakeO.Hits != 1 {
		t.Errorf("failure entry not served: %+v", st.MakeO)
	}
}

// The invalidation table: anything that can change a verdict must miss.
func TestCacheInvalidationTable(t *testing.T) {
	newTree := func() *fstree.Tree { return cacheTree(t) }
	baseCfg := func() *kconfig.Config { return cfgWith("NETDRV", "NET") }
	const file = "drivers/net/netdrv.c"

	// sameAgain must hit; every other mutation must probe and miss.
	cases := []struct {
		name    string
		mutate  func(tr *fstree.Tree) (*fstree.Tree, *kconfig.Config, string)
		wantHit bool
	}{
		{"same_again", func(tr *fstree.Tree) (*fstree.Tree, *kconfig.Config, string) {
			return tr, baseCfg(), "x86_64"
		}, true},
		{"root_edit", func(tr *fstree.Tree) (*fstree.Tree, *kconfig.Config, string) {
			tr.Write(file, "#include <linux/chain.h>\nint netdrv_probe(void)\n{\n\treturn DEEP + 1;\n}\n")
			return tr, baseCfg(), "x86_64"
		}, false},
		{"direct_header_edit", func(tr *fstree.Tree) (*fstree.Tree, *kconfig.Config, string) {
			tr.Write("include/linux/chain.h", "#include <linux/deep.h>\n#define CHAIN 2\n")
			return tr, baseCfg(), "x86_64"
		}, false},
		{"transitive_header_edit", func(tr *fstree.Tree) (*fstree.Tree, *kconfig.Config, string) {
			tr.Write("include/linux/deep.h", "#define DEEP 2\n")
			return tr, baseCfg(), "x86_64"
		}, false},
		{"config_value_change", func(tr *fstree.Tree) (*fstree.Tree, *kconfig.Config, string) {
			return tr, cfgWith("NETDRV", "NET", "USB"), "x86_64"
		}, false},
		{"arch_change", func(tr *fstree.Tree) (*fstree.Tree, *kconfig.Config, string) {
			return tr, baseCfg(), "arm"
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := ccache.New()
			seedB := cachedBuilder(t, newTree(), "x86_64", baseCfg(), rc)
			if res, _ := seedB.MakeI([]string{file}); res[0].Err != nil {
				t.Fatalf("seed run: %v", res[0].Err)
			}
			before := rc.Stats().MakeI

			tr2, cfg2, arch2 := tc.mutate(newTree())
			b := cachedBuilder(t, tr2, arch2, cfg2, rc)
			if res, _ := b.MakeI([]string{file}); res[0].Err != nil {
				t.Fatalf("probe run: %v", res[0].Err)
			}
			after := rc.Stats().MakeI
			gotHit := after.Hits > before.Hits
			if gotHit != tc.wantHit {
				t.Errorf("hit=%v, want %v (stats %+v -> %+v)", gotHit, tc.wantHit, before, after)
			}
		})
	}
}

// A Kbuild gate edit takes effect immediately: reachability is computed
// live, never cached, so disabling the object rule wins over any number of
// prior cached serves.
func TestCacheKbuildGateLive(t *testing.T) {
	tr := cacheTree(t)
	rc := ccache.New()
	b := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"), rc)
	if res, _ := b.MakeI([]string{"drivers/net/netdrv.c"}); res[0].Err != nil {
		t.Fatalf("seed run: %v", res[0].Err)
	}

	// Remove netdrv.o from the Makefile: the cached entry is still valid as
	// content, but the build no longer descends to the file.
	tr.Write("drivers/net/Makefile", "obj-$(CONFIG_BONDING) += bonding.o\nbonding-objs := bond_main.o bond_alb.o\n")
	b2 := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"), rc)
	res, _ := b2.MakeI([]string{"drivers/net/netdrv.c"})
	if !errors.Is(res[0].Err, ErrNotReachable) {
		t.Fatalf("err = %v, want ErrNotReachable despite warm cache", res[0].Err)
	}
	// Flipping the gate's CONFIG variable off behaves the same way.
	tr2 := cacheTree(t)
	b3 := cachedBuilder(t, tr2, "x86_64", cfgWith("NET"), rc)
	res3, _ := b3.MakeI([]string{"drivers/net/netdrv.c"})
	if !errors.Is(res3[0].Err, ErrNotReachable) {
		t.Fatalf("err = %v, want ErrNotReachable (CONFIG_NETDRV=n)", res3[0].Err)
	}
}

// Identical translation units inside one MakeI group are preprocessed
// once: the second file is a dedupe hit served with remapped line markers.
func TestCacheDedupeWithinGroup(t *testing.T) {
	tr := cacheTree(t)
	rc := ccache.New()
	b := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"), rc)
	res, _ := b.MakeI([]string{"drivers/net/netdrv.c", "drivers/net/netdrv2.c"})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("errs: %v / %v", res[0].Err, res[1].Err)
	}
	st := rc.Stats().MakeI
	if st.Misses != 1 || st.Hits != 1 || st.Deduped != 1 {
		t.Fatalf("dedupe counters = %+v, want 1 miss / 1 hit / 1 deduped", st)
	}
	// The served copy must name its own path, not the stored root's.
	if !strings.Contains(res[1].Text, `"drivers/net/netdrv2.c"`) ||
		strings.Contains(res[1].Text, `"drivers/net/netdrv.c"`) {
		t.Errorf("dedupe serve not remapped:\n%s", res[1].Text)
	}
	// Same content compared against a direct preprocess of netdrv2.c.
	off := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"))
	offRes, _ := off.MakeI([]string{"drivers/net/netdrv2.c"})
	if res[1].Text != offRes[0].Text {
		t.Errorf("deduped text differs from direct preprocess")
	}
}

// Injected faults bypass the cache entirely: a faulted attempt neither
// probes nor stores, the retry recomputes, and only the genuine result is
// ever cached.
func TestCacheFaultBypassAndRetry(t *testing.T) {
	const op = "x86_64:i:drivers/net/netdrv.c"
	// Find a seed whose first roll for op fires while the two retry rolls
	// do not (each attempt rolls a fresh decision).
	var seed uint64
	for s := uint64(1); ; s++ {
		if s > 50_000 {
			t.Fatal("no suitable fault seed found")
		}
		in := faultinject.New(faultinject.Plan{Seed: s, PreprocessRate: 0.5}, "scope")
		if in.FailPreprocess(op) && !in.FailPreprocess(op) && !in.FailPreprocess(op) {
			seed = s
			break
		}
	}

	tr := cacheTree(t)
	rc := ccache.New()
	b := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"), rc)
	b.Faults = faultinject.New(faultinject.Plan{Seed: seed, PreprocessRate: 0.5}, "scope")

	// Attempt 1: the fault fires before any cache interaction.
	res1, _ := b.MakeI([]string{"drivers/net/netdrv.c"})
	if !errors.Is(res1[0].Err, ErrTransient) {
		t.Fatalf("attempt 1 err = %v, want ErrTransient", res1[0].Err)
	}
	if st := rc.Stats().MakeI; st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("faulted attempt touched the cache: %+v", st)
	}

	// Attempt 2 (the retry): fault clears, recompute + store.
	res2, _ := b.MakeI([]string{"drivers/net/netdrv.c"})
	if res2[0].Err != nil {
		t.Fatalf("retry err = %v", res2[0].Err)
	}
	if st := rc.Stats().MakeI; st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("retry must recompute: %+v", st)
	}

	// Attempt 3: the genuine result is now served.
	res3, _ := b.MakeI([]string{"drivers/net/netdrv.c"})
	if res3[0].Err != nil || res3[0].Text != res2[0].Text {
		t.Fatalf("third attempt should hit with identical text")
	}
	if st := rc.Stats().MakeI; st.Hits != 1 {
		t.Fatalf("third attempt did not hit: %+v", st)
	}
}

// A truncation fault is applied to the served copy only — the stored text
// stays clean, so later probes (and other patches) never see it.
func TestCacheTruncationNeverStored(t *testing.T) {
	const op = "x86_64:i:drivers/net/netdrv.c"
	var seed uint64
	for s := uint64(1); ; s++ {
		if s > 50_000 {
			t.Fatal("no suitable truncate seed found")
		}
		in := faultinject.New(faultinject.Plan{Seed: s, TruncateRate: 0.5}, "scope")
		if in.TruncateI(op) {
			seed = s
			break
		}
	}

	tr := cacheTree(t)
	off := newTestBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"))
	offRes, _ := off.MakeI([]string{"drivers/net/netdrv.c"})

	rc := ccache.New()
	faulted := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"), rc)
	faulted.Faults = faultinject.New(faultinject.Plan{Seed: seed, TruncateRate: 0.5}, "scope")
	fRes, _ := faulted.MakeI([]string{"drivers/net/netdrv.c"})
	if fRes[0].Err != nil {
		t.Fatalf("faulted run: %v", fRes[0].Err)
	}
	if len(fRes[0].Text) >= len(offRes[0].Text) {
		t.Fatalf("truncation fault did not truncate")
	}

	clean := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV", "NET"), rc)
	cRes, _ := clean.MakeI([]string{"drivers/net/netdrv.c"})
	if cRes[0].Text != offRes[0].Text {
		t.Fatalf("cache served truncated text:\ngot  %d bytes\nwant %d bytes",
			len(cRes[0].Text), len(offRes[0].Text))
	}
}

// Yes vs Mod builds never cross-contaminate: the MODULE define is part of
// the options fingerprint.
func TestCacheModuleSeparation(t *testing.T) {
	tr := cacheTree(t)
	tr.Write("drivers/net/netdrv.c", "#ifdef MODULE\nint module_only;\n#endif\nint always;\n")
	rc := ccache.New()

	yes := cachedBuilder(t, tr, "x86_64", cfgWith("NETDRV"), rc)
	yRes, _ := yes.MakeI([]string{"drivers/net/netdrv.c"})

	mcfg := &kconfig.Config{}
	mcfg.Set("NETDRV", kconfig.Mod)
	mod := cachedBuilder(t, tr, "x86_64", mcfg, rc)
	mRes, _ := mod.MakeI([]string{"drivers/net/netdrv.c"})

	if strings.Contains(yRes[0].Text, "module_only") {
		t.Error("built-in serve leaked MODULE text")
	}
	if !strings.Contains(mRes[0].Text, "module_only") {
		t.Error("modular build lost MODULE text (served stale built-in entry?)")
	}
	if st := rc.Stats().MakeI; st.Hits != 0 || st.Misses != 2 {
		t.Errorf("yes/mod must not share entries: %+v", st)
	}
}
