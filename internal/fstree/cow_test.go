package fstree

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fuzzPaths is FuzzTreeOps' path alphabet, sixteen names in each of six
// directories: nested directories, a file that shares a directory's name
// ("a"), and string prefixes that are not directory prefixes ("ab",
// "arch/x8"). Ninety-six paths are three leaves' worth, so filling a tree
// splits leaves and emptying one empties them.
var (
	fuzzDirs  = []string{"", "a", "a/b", "ab", "arch/x8", "arch/x86"}
	fuzzPaths = func() []string {
		names := []string{"a", "b.c", "x86", "zz.h"}
		for i := 0; len(names) < 16; i++ {
			names = append(names, fmt.Sprintf("f%d.c", i), fmt.Sprintf("f%d.h", i))
		}
		var out []string
		for _, n := range names {
			for _, d := range fuzzDirs {
				out = append(out, strings.TrimPrefix(d+"/"+n, "/"))
			}
		}
		return out
	}()
	fuzzUnder = append(fuzzDirs, "arch", "nope")
	// fuzzNeedles are Containing's needles: the empty needle, needles
	// shorter than a trigram, needles from the contents' alphabet (with
	// "c@1", a trigram that tells apart writes of one path at different
	// steps), a whole path, a byte ≥ 0x80 that only some writes hold, alone
	// and in a trigram, and a needle that never occurs.
	fuzzNeedles = []string{"", "a", "@", "zz", "b.c@", "@1", "c@1", "arch/x86/zz.h", "\xe9", "c\xe9@", "qq"}
)

// maxFuzzTrees bounds how many trees one FuzzTreeOps input juggles, and
// maxFuzzSteps how many steps it decodes, which keeps an execution short.
const (
	maxFuzzTrees = 3
	maxFuzzSteps = 64
)

// FuzzTreeOps first writes the first n paths of the alphabet to a tree,
// with n from 0 to 96 chosen by the input's first byte, so empty, one-leaf
// and several-leaf trees are all fuzzed. It decodes the rest of its input
// into Write, Remove, Clone and switch-tree steps, two bytes each, and
// ends with two fixed phases on the current tree: it writes every path of
// the alphabet the tree lacks, so that it holds all 96 and has split
// leaves, then removes every file, which empties them. Every step of every
// phase is applied both to the trees and to plain map models, and after
// each step every tree must agree with its model on Read, Exists, Len,
// Paths, Under, Walk, Containing and each version's hash. Since each
// model is independent, a write that leaks from a clone into its source
// through a shared leaf, or back, fails the check, and so does a hash or
// signature that outlives the content it was computed from.
func FuzzTreeOps(f *testing.F) {
	// Fill a tree, clone it, then edit both sides.
	seed := []byte{byte(len(fuzzPaths)), 3, 1, 4, 1}
	for i := byte(0); i < 20; i++ {
		seed = append(seed, 2, i*5, 1, 20+i, 4, i)
	}
	f.Add(seed)
	// Grow an empty tree, clone it, and empty the clone.
	seed = []byte{0}
	for i := byte(0); i < 12; i++ {
		seed = append(seed, 0, i)
	}
	seed = append(seed, 3, 1, 4, 1)
	for i := byte(0); i < 12; i++ {
		seed = append(seed, 2, i)
	}
	seed = append(seed, 3, 2)
	f.Add(seed)
	rnd := rand.New(rand.NewSource(1))
	for n := maxFuzzSteps; n <= 2*maxFuzzSteps; n *= 2 {
		b := make([]byte, n)
		rnd.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		trees := []*Tree{New()}
		models := []map[string]string{{}}
		cur := 0
		check := func(step string, args ...any) {
			t.Helper()
			for k := range trees {
				if err := checkModel(trees[k], models[k]); err != nil {
					t.Fatalf("%s, tree %d: %v", fmt.Sprintf(step, args...), k, err)
				}
			}
		}
		write := func(name, p, content string) {
			trees[cur].Write(name, content)
			models[cur][p] = content
		}
		for _, p := range fuzzPaths[:int(ops[0])%(len(fuzzPaths)+1)] {
			write(p, p, p+"@fill")
		}
		check("pre-fill")
		ops = ops[1:]
		for i := 0; i+1 < len(ops) && i < 2*maxFuzzSteps; i += 2 {
			op, arg := ops[i], ops[i+1]
			p := fuzzPaths[int(arg)%len(fuzzPaths)]
			name := p
			if arg >= 128 {
				name = "./" + p // every method cleans its path
			}
			switch op % 5 {
			case 0, 1: // writes are twice as likely, so trees grow
				content := fmt.Sprintf("%s@%d", p, i)
				if op >= 128 {
					content = fmt.Sprintf("%s\xe9@%d", p, i)
				}
				write(name, p, content)
			case 2:
				removeChecked(t, trees[cur], models[cur], name, p)
			case 3: // clone into a new slot, or over an existing one
				dst := int(arg) % maxFuzzTrees
				clone, model := trees[cur].Clone(), maps.Clone(models[cur])
				if dst >= len(trees) {
					trees, models = append(trees, clone), append(models, model)
				} else {
					trees[dst], models[dst] = clone, model
				}
			case 4:
				cur = int(arg) % len(trees)
			}
			check("step %d", i)
		}
		for _, p := range fuzzPaths {
			if _, ok := models[cur][p]; !ok {
				write(p, p, p+"@end")
				check("filling tree %d, wrote %q", cur, p)
			}
		}
		for _, p := range trees[cur].Paths() {
			removeChecked(t, trees[cur], models[cur], p, p)
			check("emptying tree %d, removed %q", cur, p)
		}
	})
}

// removeChecked removes name from tr and p from model, and fails t when
// Remove's error disagrees with the model.
func removeChecked(t *testing.T, tr *Tree, model map[string]string, name, p string) {
	t.Helper()
	err := tr.Remove(name)
	_, had := model[p]
	if had != (err == nil) || (err != nil && !errors.Is(err, ErrNotExist)) {
		t.Fatalf("Remove(%q) = %v, file present: %v", name, err, had)
	}
	delete(model, p)
}

// checkModel reports the first query on which tr disagrees with model:
// Len, Paths, Read and Exists for every path of the alphabet, each
// version's hash against a fresh FNV-64a of its content, Under, a Walk that
// must visit every file once, in path order, with its content, and
// Containing.
func checkModel(tr *Tree, model map[string]string) error {
	if tr.Len() != len(model) {
		return fmt.Errorf("Len = %d, want %d", tr.Len(), len(model))
	}
	want := make([]string, 0, len(model))
	for p := range model {
		want = append(want, p)
	}
	sort.Strings(want)
	if got := tr.Paths(); !slices.Equal(got, want) {
		return fmt.Errorf("Paths = %v, want %v", got, want)
	}
	for _, p := range fuzzPaths {
		wc, wok := model[p]
		c, err := tr.Read(p)
		if (err == nil) != wok || c != wc || tr.Exists(p) != wok {
			return fmt.Errorf("Read(%q) = %q, %v; Exists = %v; want %q, %v", p, c, err, tr.Exists(p), wc, wok)
		}
	}
	for p, c := range model {
		v, _ := tr.Lookup(p)
		h := fnv.New64a()
		h.Write([]byte(c))
		if v.Hash() != h.Sum64() {
			return fmt.Errorf("Lookup(%q).Hash() = %#x, want FNV-64a %#x", p, v.Hash(), h.Sum64())
		}
	}
	for _, d := range fuzzUnder {
		var under []string
		for _, p := range want {
			if d == "" || strings.HasPrefix(p, d) && strings.HasPrefix(p[len(d):], "/") {
				under = append(under, p)
			}
		}
		if got := tr.Under(d); !slices.Equal(got, under) {
			return fmt.Errorf("Under(%q) = %v, want %v", d, got, under)
		}
	}
	var walked []string
	err := tr.Walk(func(p, c string) error {
		if c != model[p] {
			return fmt.Errorf("content %q, want %q", c, model[p])
		}
		walked = append(walked, p)
		return nil
	})
	if err != nil || !slices.Equal(walked, want) {
		return fmt.Errorf("Walk = %v, %v; want %v", walked, err, want)
	}
	for _, suffix := range []string{".c", ".h"} {
		queries := [][]string{nil, fuzzNeedles, {"qq", "@1"}}
		for _, n := range fuzzNeedles {
			queries = append(queries, []string{n})
		}
		for _, needles := range queries {
			var match []string
			for _, p := range want {
				if strings.HasSuffix(p, suffix) && slices.ContainsFunc(needles, func(n string) bool {
					return strings.Contains(model[p], n)
				}) {
					match = append(match, p)
				}
			}
			if got := tr.Containing(suffix, needles); !slices.Equal(got, match) {
				return fmt.Errorf("Containing(%q, %q) = %v, want %v", suffix, needles, got, match)
			}
		}
	}
	return nil
}

// TestConcurrentClones: goroutines that clone one tree, write to their
// clones and query them with Containing race neither with each other nor
// with readers of the source, for a source whose leaves no other tree
// holds yet (the goroutines' clones mark them shared while the others read
// them), and for a pair of sources that share leaves: a plain tree and its
// clone, which owns copies of the leaves it wrote to. Every clone shares
// file versions with the source, so the goroutines' queries sign and hash
// the same versions at once.
func TestConcurrentClones(t *testing.T) {
	fill := func() *Tree {
		t := New()
		for i := 0; i < 64; i++ {
			t.Write(fmt.Sprintf("d%d/f%d.c", i%4, i), "v0 plain")
		}
		return t
	}
	fresh, plain := fill(), fill()
	layered := plain.Clone()
	for i := 0; i < 8; i += 2 {
		layered.Write(fmt.Sprintf("d%d/f%d.c", i%4, i), "v1 layered")
	}
	for _, s := range []struct {
		name string
		src  *Tree
	}{{"fresh", fresh}, {"plain", plain}, {"layered", layered}} {
		name, src := s.name, s.src
		want := src.Paths()
		first, _ := src.Read("d0/f0.c")
		wantPlain := src.Containing(".c", []string{"plain"})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 20; r++ {
					c := src.Clone()
					for i := 0; i < 24; i++ {
						c.Write(fmt.Sprintf("d%d/g%d-%d.c", i%4, g, i), "w clone")
					}
					if err := c.Remove("d1/f1.c"); err != nil {
						t.Errorf("%s: Remove: %v", name, err)
					}
					if c.Len() != len(want)+23 || len(c.Under("d1")) != 16+6-1 {
						t.Errorf("%s: clone Len = %d, Under(d1) = %d", name, c.Len(), len(c.Under("d1")))
					}
					if got := src.Paths(); !slices.Equal(got, want) {
						t.Errorf("%s: source Paths changed under a clone", name)
					}
					if got, _ := src.Read("d0/f0.c"); got != first {
						t.Errorf("%s: source d0/f0.c = %q, want %q", name, got, first)
					}
					if v, _ := c.Lookup("d0/f0.c"); v.Hash() != Hash(first) {
						t.Errorf("%s: clone d0/f0.c hash = %#x, want %#x", name, v.Hash(), Hash(first))
					}
					if got := c.Containing(".c", []string{"plain", "layered", "clone"}); !slices.Equal(got, c.Paths()) {
						t.Errorf("%s: clone Containing = %d files, want all %d", name, len(got), c.Len())
					}
					if got := src.Containing(".c", []string{"plain"}); !slices.Equal(got, wantPlain) {
						t.Errorf("%s: source Containing(plain) = %v, want %v", name, got, wantPlain)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
