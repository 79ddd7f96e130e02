package kbuild

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"

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

// walk follows the descent to a cleaned file path. It is the only descent
// walk: Builder.Reachable evaluates it under a configuration, FileGate
// collects its variables.
func walk(t *fstree.Tree, file, archName string) descent {
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
		// Arch directories nest one extra level: the root Makefile lists
		// arch/<name>/ in one step.
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
// file as unconditionally built.
func FileGate(t *fstree.Tree, file, archName string) (Gate, error) {
	d := walk(t, fstree.Clean(file), archName)
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

// MakefileCache binds FileGate to one tree snapshot; perfbench's audit
// replay holds one per tree. It keeps no state of its own: LoadMakefile's
// memo already shares every makefile parse.
type MakefileCache struct {
	T *fstree.Tree
}

// NewMakefileCache returns a FileGate handle over one tree snapshot.
func NewMakefileCache(t *fstree.Tree) *MakefileCache {
	return &MakefileCache{T: t}
}

// FileGate is the package-level FileGate over the handle's tree.
func (c *MakefileCache) FileGate(file, archName string) (Gate, error) {
	return FileGate(c.T, file, archName)
}
