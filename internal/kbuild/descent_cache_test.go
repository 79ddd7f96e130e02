package kbuild

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/kernelgen"
)

// referenceWalk is the descent walk as it was before MakefileCache
// memoized it: one loop over the directory components, loading every
// makefile on the chain for every file.
func referenceWalk(t *fstree.Tree, file, archName string) descent {
	d := descent{obj: strings.TrimSuffix(path.Base(file), ".c") + ".o"}
	dir := path.Dir(file)
	if dir == "." {
		dir = ""
	}
	var components []string
	if dir != "" {
		components = strings.Split(dir, "/")
	}
	cur := ""
	for i := 0; i < len(components); i++ {
		mf, err := LoadMakefile(t, cur, archName)
		if err != nil {
			d.err = err
			return d
		}
		sub := components[i]
		rule, ok := mf.ruleFor(sub + "/")
		if !ok && cur == "" && sub == "arch" && i+1 < len(components) {
			i++
			sub = path.Join(sub, components[i])
			rule, ok = mf.ruleFor(sub + "/")
		}
		if !ok {
			d.err = fmt.Errorf("%w: %s not listed in %s", ErrNotReachable, file, mf.Path)
			return d
		}
		d.dirs = append(d.dirs, step{rule: rule, mk: mf.Path})
		cur = path.Join(cur, sub)
	}
	mf, err := LoadMakefile(t, dir, archName)
	if err != nil {
		d.err = err
		return d
	}
	rule, ok := mf.ruleFor(d.obj)
	if !ok {
		d.err = fmt.Errorf("%w: no rule for %s in %s", ErrNotReachable, d.obj, mf.Path)
		return d
	}
	d.own = rule
	return d
}

// fileGate is MakefileCache.FileGate through a fresh cache: one descent
// that shares nothing with any other walk.
func fileGate(t *fstree.Tree, file, archName string) (Gate, error) {
	return NewMakefileCache(t).FileGate(file, archName)
}

// referenceFileGate is FileGate over referenceWalk.
func referenceFileGate(t *fstree.Tree, file, archName string) (Gate, error) {
	d := referenceWalk(t, fstree.Clean(file), archName)
	if d.err != nil {
		return Gate{}, d.err
	}
	gate := Gate{OwnVar: d.own.CondVar, OwnModule: d.own.Module}
	for _, s := range append(d.dirs, step{rule: d.own}) {
		if s.rule.CondVar != "" {
			gate.Vars = append(gate.Vars, s.rule.CondVar)
		}
	}
	sort.Strings(gate.Vars)
	gate.Vars = slices.Compact(gate.Vars)
	return gate, nil
}

// gateResult renders one FileGate answer: the gate, or the error text.
func gateResult(g Gate, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%+v", g)
}

// descentText renders a descent with its error's text.
func descentText(d descent) string {
	errText := ""
	if d.err != nil {
		errText = d.err.Error()
	}
	return fmt.Sprintf("%s %+v %+v %q", d.obj, d.dirs, d.own, errText)
}

// descentCorpora are generated trees with injected mismatches, plus
// hand-built trees whose root Makefile lists arch/ itself, lists no
// architecture, or misses a makefile on the way down.
func descentCorpora(t *testing.T) map[string]*fstree.Tree {
	out := map[string]*fstree.Tree{}
	for seed := int64(1); seed <= 3; seed++ {
		for _, scale := range []float64{0.12, 0.25} {
			tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: seed, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := kernelgen.InjectMismatches(tr, seed, 12); err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("seed%d-scale%.2f", seed, scale)] = tr
		}
	}
	viaArch := testTree(t)
	viaArch.Write("Makefile", "obj-y += drivers/ net/ arch/\n")
	viaArch.Write("arch/Makefile", "obj-y += $(SRCARCH)/\n")
	out["via-arch-makefile"] = viaArch
	broken := testTree(t)
	broken.Write("Makefile", "obj-y += drivers/ net/ sound/\n")
	if err := broken.Remove("drivers/usb/Makefile"); err != nil {
		t.Fatal(err)
	}
	broken.Write("drivers/usb/storage.c", "int s;\n")
	broken.Write("sound/pci/hda.c", "int h;\n")
	broken.Write("top.c", "int top;\n")
	out["broken-chains"] = broken
	return out
}

// TestMakefileCacheMatchesWalk checks that, for every .c file and
// architecture of each corpus, broken architectures and broken descent
// chains included, the walk Builder.Reachable evaluates equals the
// pre-memo walk, rules, makefiles and error text alike, and FileGate
// through one shared MakefileCache answers exactly as FileGate through a
// fresh cache and as the pre-memo walk: the same gate, or the same error
// text. Four goroutines share the cache, in
// different file orders, so `go test -race` checks its memo too.
func TestMakefileCacheMatchesWalk(t *testing.T) {
	for name, tr := range descentCorpora(t) {
		files := []string{"arch/loose.c", "arch/nosuch/kernel/x.c", "nowhere/deep/x.c", "x.c", "../up.c"}
		for _, p := range tr.Paths() {
			if strings.HasSuffix(p, ".c") {
				files = append(files, p)
			}
		}
		meta, err := LoadMeta(tr)
		if err != nil {
			t.Fatal(err)
		}
		arches := ArchNames(DiscoverArches(tr, meta))
		arches = append(arches, "none")
		want := make(map[string]string)
		for _, a := range arches {
			for _, f := range files {
				if got, ref := descentText(NewMakefileCache(tr).walk(fstree.Clean(f), a)), descentText(referenceWalk(tr, fstree.Clean(f), a)); got != ref {
					t.Fatalf("%s [%s] %s: walk %s, pre-memo walk %s", name, a, f, got, ref)
				}
				ref := gateResult(referenceFileGate(tr, f, a))
				if one := gateResult(fileGate(tr, f, a)); one != ref {
					t.Fatalf("%s [%s] %s: fresh-cache FileGate %s, pre-memo walk %s", name, a, f, one, ref)
				}
				want[a+"|"+f] = ref
			}
		}
		mc := NewMakefileCache(tr)
		var wg sync.WaitGroup
		errs := make([]string, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				order := slices.Clone(files)
				if w%2 == 1 {
					slices.Reverse(order)
				}
				for i := range arches {
					a := arches[(i+w)%len(arches)]
					for _, f := range order {
						if got := gateResult(mc.FileGate(f, a)); got != want[a+"|"+f] {
							errs[w] = fmt.Sprintf("[%s] %s: shared-cache FileGate %s, fresh cache %s", a, f, got, want[a+"|"+f])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Fatalf("%s %s", name, e)
			}
		}
		if len(mc.memo) == 0 {
			t.Errorf("%s: the shared cache memoized nothing", name)
		}
	}
}
