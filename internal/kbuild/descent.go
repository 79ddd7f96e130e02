package kbuild

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"

	"jmake/internal/fstree"
)

// step is one directory rule on a descent chain, with the makefile that
// holds it.
type step struct {
	rule ObjRule
	mk   string
}

// descent is the configuration-free Kbuild descent from the root Makefile
// to one file: the directory rules in descent order, then either the
// file's own object rule or the structural error (missing Makefile,
// unlisted directory, no object rule) that stopped the walk.
type descent struct {
	obj  string // the file's object, foo.o for foo.c
	dirs []step
	own  ObjRule // valid when err == nil
	err  error
}

// reach is the configuration-free descent from the root Makefile to one
// directory: the directory rules in descent order and the directory's own
// makefile, or what stopped the walk on the way there. unlisted names the
// makefile that does not list the next directory (the error also names
// the file being walked, so walk forms it); err is a makefile that could
// not be loaded.
type reach struct {
	dirs     []step
	mf       *Makefile
	unlisted string
	err      error
}

// walk follows the descent to a cleaned file path without memoizing. It
// and MakefileCache.walk are the only descent walk: Builder.Reachable
// evaluates it under a configuration, FileGate collects its variables.
func walk(t *fstree.Tree, file, archName string) descent {
	c := MakefileCache{T: t}
	return c.walk(file, archName)
}

// walk follows the descent to a cleaned file path: the descent to its
// directory, then the file's own object rule.
func (c *MakefileCache) walk(file, archName string) descent {
	d := descent{obj: strings.TrimSuffix(path.Base(file), ".c") + ".o"}
	dir := path.Dir(file)
	if dir == "." {
		dir = ""
	}
	r := c.reach(dir, archName)
	d.dirs = r.dirs
	switch {
	case r.unlisted != "":
		d.err = fmt.Errorf("%w: %s not listed in %s", ErrNotReachable, file, r.unlisted)
		return d
	case r.err != nil:
		d.err = r.err
		return d
	}
	rule, ok := r.mf.ruleFor(d.obj)
	if !ok {
		d.err = fmt.Errorf("%w: no rule for %s in %s", ErrNotReachable, d.obj, r.mf.Path)
		return d
	}
	d.own = rule
	return d
}

// reach returns the descent to dir, from the memo when the cache keeps
// one.
func (c *MakefileCache) reach(dir, archName string) reach {
	if c.memo == nil {
		return c.descend(dir, archName)
	}
	key := dirKey{dir: dir, arch: archName}
	c.mu.Lock()
	r, ok := c.memo[key]
	c.mu.Unlock()
	if ok {
		return r
	}
	r = c.descend(dir, archName)
	c.mu.Lock()
	c.memo[key] = r
	c.mu.Unlock()
	return r
}

// descend extends the descent to the directory before dir on the chain
// by one step. That directory is dir's parent, except that the root
// Makefile may list arch/<name>/ in one step when it does not list arch/.
func (c *MakefileCache) descend(dir, archName string) reach {
	if dir == "" {
		mf, err := LoadMakefile(c.T, "", archName)
		return reach{mf: mf, err: err}
	}
	parent, sub := path.Dir(dir), path.Base(dir)
	if parent == "." {
		parent = ""
	}
	if parent == "arch" {
		root := c.reach("", archName)
		if root.mf == nil {
			return root
		}
		if _, ok := root.mf.ruleFor("arch/"); !ok {
			return c.step(root, dir, dir, archName)
		}
	}
	return c.step(c.reach(parent, archName), sub, dir, archName)
}

// step descends from prev into its subdirectory sub, which is dir.
func (c *MakefileCache) step(prev reach, sub, dir, archName string) reach {
	if prev.mf == nil {
		return prev // the walk stopped before dir
	}
	rule, ok := prev.mf.ruleFor(sub + "/")
	if !ok {
		return reach{dirs: prev.dirs, unlisted: prev.mf.Path}
	}
	// Clipped, so the append copies: prev.dirs is shared by every
	// subdirectory's entry.
	dirs := append(slices.Clip(prev.dirs), step{rule: rule, mk: prev.mf.Path})
	mf, err := LoadMakefile(c.T, dir, archName)
	return reach{dirs: dirs, mf: mf, err: err}
}

// Gate is the exact Kbuild gate of one file: the conjunction of CONFIG
// variables that must be enabled for the build to descend to it. Unlike the
// GatingConfigs heuristic, it is derived from the actual descent chain and
// object rule, so it is a presence condition, not a guess.
type Gate struct {
	// Vars are CONFIG variable names (without prefix, sorted, deduplicated)
	// gating the descent directories and the file's own rule; all must be
	// != n for the file to be built.
	Vars []string
	// OwnVar is the CONFIG variable of the file's own obj- rule, "" for
	// obj-y/obj-m. When set it also appears in Vars.
	OwnVar string
	// OwnModule is true when the file's own rule is obj-m: the file can
	// only ever be built as a module.
	OwnModule bool
}

// FileGate collects every obj-$(CONFIG_X) condition on the descent chain of
// a .c file. An error means the chain is broken (missing Makefile, unlisted
// directory or object): no gate is derivable and callers must not treat the
// file as unconditionally built. It walks without memoizing; callers
// asking for many files of one snapshot share a MakefileCache.
func FileGate(t *fstree.Tree, file, archName string) (Gate, error) {
	c := MakefileCache{T: t}
	return c.FileGate(file, archName)
}

// MakefileCache memoizes the Kbuild descent of one tree snapshot: for each
// directory and architecture a walk reaches, the directory rules from the
// root Makefile down and the directory's own makefile, each built on the
// entry of the directory before it. Every makefile a walk needs is then
// loaded once per architecture, however many files share the directory.
// The tree must not change while the cache is in use. A MakefileCache is
// safe for concurrent use; concurrent first walks of one directory may
// both compute it, with equal results.
type MakefileCache struct {
	T *fstree.Tree

	mu   sync.Mutex
	memo map[dirKey]reach // nil: walk without memoizing
}

// dirKey identifies one memoized descent.
type dirKey struct{ dir, arch string }

// NewMakefileCache returns an empty descent memo over one tree snapshot.
func NewMakefileCache(t *fstree.Tree) *MakefileCache {
	return &MakefileCache{T: t, memo: make(map[dirKey]reach)}
}

// FileGate is the package-level FileGate through the cache's memo.
func (c *MakefileCache) FileGate(file, archName string) (Gate, error) {
	d := c.walk(fstree.Clean(file), archName)
	if d.err != nil {
		return Gate{}, d.err
	}
	gate := Gate{OwnVar: d.own.CondVar, OwnModule: d.own.Module}
	for _, s := range d.dirs {
		if s.rule.CondVar != "" {
			gate.Vars = append(gate.Vars, s.rule.CondVar)
		}
	}
	if d.own.CondVar != "" {
		gate.Vars = append(gate.Vars, d.own.CondVar)
	}
	sort.Strings(gate.Vars)
	gate.Vars = slices.Compact(gate.Vars)
	return gate, nil
}
