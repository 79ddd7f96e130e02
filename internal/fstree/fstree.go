// Package fstree provides an in-memory file tree used as the working copy
// for all source manipulation and compilation in this repository.
//
// The JMake paper runs its toolchain inside a 126 GB tmpfs to avoid disk
// bottlenecks; fstree plays the same role here. Paths are slash-separated,
// relative, and cleaned on every operation, so "./a//b" and "a/b" name the
// same file.
//
// A Tree is copy-on-write, in two layers. The base is immutable: a file map
// plus its sorted path list, shared by every tree cloned from it. The
// overlay is private: the tree's own writes, and its removals of base
// files. Clone copies only the overlay, so a checkout or a per-patch
// working copy costs O(diff), not O(tree), and Clone never mutates its
// receiver: any number of goroutines may clone and read one tree while
// nothing writes to it. An overlay that outgrows a fixed fraction of its
// base is folded into a new base: on a write, only when the tree already
// has a base; on a clone, into the new tree only. A tree built from empty
// (New, LoadDir) has no base, so it stays a plain file map however large
// it grows.
//
// Both layers map paths to file versions. Write makes a new version;
// Clone and folds copy pointers to versions, so a version's lazily
// computed trigram signature (see Containing) is computed once per
// written content and shared by every tree that holds it.
package fstree

import (
	"errors"
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"
)

// ErrNotExist is returned when a read or remove names a file that is not in
// the tree.
var ErrNotExist = errors.New("fstree: file does not exist")

// foldDivisor sets when an overlay is folded into a new base: once it holds
// more than 1/foldDivisor as many entries as the base has files. A clone
// then copies at most that fraction of the tree, and a fold, which copies
// the whole tree, runs at most once per len(base)/foldDivisor writes.
const foldDivisor = 8

// layer is an immutable base: files and their paths, sorted.
type layer struct {
	files map[string]*file
	paths []string
}

// Tree is a mutable in-memory file tree. The zero value is not usable; call
// New. Tree is not safe for concurrent mutation; the evaluation harness
// gives each worker its own Tree, mirroring the paper's 25 kernel copies.
type Tree struct {
	base *layer // shared and never modified; nil for a tree built from empty
	over map[string]*file
	// gone holds removed base files; it never shares a path with over.
	gone map[string]struct{}
	n    int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{over: make(map[string]*file)}
}

// Clean normalizes a tree path: slash-separated, no leading "./", no
// duplicate separators.
func Clean(p string) string {
	p = path.Clean(strings.ReplaceAll(p, "\\", "/"))
	p = strings.TrimPrefix(p, "/")
	if p == "." {
		return ""
	}
	return p
}

func (t *Tree) lookup(p string) (*file, bool) {
	if f, ok := t.over[p]; ok {
		return f, true
	}
	if t.base == nil {
		return nil, false
	}
	if _, ok := t.gone[p]; ok {
		return nil, false
	}
	f, ok := t.base.files[p]
	return f, ok
}

func (t *Tree) inBase(p string) bool {
	if t.base == nil {
		return false
	}
	_, ok := t.base.files[p]
	return ok
}

// overgrown reports whether the overlay should be folded into the base,
// which must exist.
func (t *Tree) overgrown() bool {
	return len(t.over)+len(t.gone) > len(t.base.files)/foldDivisor
}

// Write creates or replaces the file at p with content.
func (t *Tree) Write(p, content string) {
	p = Clean(p)
	had := len(t.over)
	t.over[p] = &file{content: content}
	if len(t.over) == had {
		return // replaced an earlier write
	}
	if _, ok := t.gone[p]; ok {
		delete(t.gone, p)
		t.n++
		return
	}
	if !t.inBase(p) {
		t.n++
	}
	if t.base != nil && t.overgrown() {
		t.fold()
	}
}

// Read returns the content of the file at p.
func (t *Tree) Read(p string) (string, error) {
	f, ok := t.lookup(Clean(p))
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return f.content, nil
}

// Exists reports whether a file exists at p. Directories are implicit:
// Exists is about files only.
func (t *Tree) Exists(p string) bool {
	_, ok := t.lookup(Clean(p))
	return ok
}

// Remove deletes the file at p.
func (t *Tree) Remove(p string) error {
	cp := Clean(p)
	if _, ok := t.lookup(cp); !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	t.n--
	delete(t.over, cp)
	if !t.inBase(cp) {
		return nil
	}
	if t.gone == nil {
		t.gone = make(map[string]struct{})
	}
	t.gone[cp] = struct{}{}
	if t.overgrown() {
		t.fold()
	}
	return nil
}

// Len returns the number of files in the tree.
func (t *Tree) Len() int { return t.n }

// Paths returns all file paths, sorted.
func (t *Tree) Paths() []string { return t.under("") }

// Under returns all file paths under directory dir, sorted. An empty dir
// returns every path.
func (t *Tree) Under(dir string) []string {
	prefix := Clean(dir)
	if prefix != "" {
		prefix += "/"
	}
	return t.under(prefix)
}

// under merges the base's sorted paths that start with prefix, found by
// binary search, with the overlay's, minus removed base files.
func (t *Tree) under(prefix string) []string {
	var base []string
	if t.base != nil {
		all := t.base.paths
		lo := sort.SearchStrings(all, prefix)
		hi := lo + sort.Search(len(all)-lo, func(i int) bool {
			return !strings.HasPrefix(all[lo+i], prefix)
		})
		base = all[lo:hi]
	}
	var over []string
	for p := range t.over {
		if strings.HasPrefix(p, prefix) {
			over = append(over, p)
		}
	}
	sort.Strings(over)
	out := make([]string, 0, len(base)+len(over))
	for len(base) > 0 || len(over) > 0 {
		switch {
		case len(over) == 0 || len(base) > 0 && base[0] < over[0]:
			if _, ok := t.gone[base[0]]; !ok {
				out = append(out, base[0])
			}
			base = base[1:]
		case len(base) == 0 || over[0] < base[0]:
			out = append(out, over[0])
			over = over[1:]
		default: // a written base file
			out = append(out, over[0])
			base, over = base[1:], over[1:]
		}
	}
	return out
}

// Clone returns an independent copy of the tree that shares its base. It
// never modifies t. Used for history checkpoints and per-worker working
// copies.
func (t *Tree) Clone() *Tree {
	if t.base == nil || t.overgrown() {
		return &Tree{base: t.merged(), over: make(map[string]*file), n: t.n}
	}
	return &Tree{base: t.base, over: maps.Clone(t.over), gone: maps.Clone(t.gone), n: t.n}
}

// fold replaces the tree's base with one holding all of its files.
func (t *Tree) fold() {
	t.base = t.merged()
	t.over = make(map[string]*file)
	t.gone = nil
}

// merged returns a new base holding the tree's files. It only reads t.
func (t *Tree) merged() *layer {
	var files map[string]*file
	if t.base == nil {
		files = maps.Clone(t.over)
	} else {
		files = maps.Clone(t.base.files)
		for p := range t.gone {
			delete(files, p)
		}
		maps.Copy(files, t.over)
	}
	return &layer{files: files, paths: t.Paths()}
}

// WalkFunc is called by Walk for every file in sorted path order.
type WalkFunc func(path, content string) error

// Walk visits every file in sorted path order, stopping at the first error.
func (t *Tree) Walk(fn WalkFunc) error {
	for _, p := range t.Paths() {
		f, _ := t.lookup(p)
		if err := fn(p, f.content); err != nil {
			return err
		}
	}
	return nil
}
