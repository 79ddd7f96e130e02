// Package fstree provides an in-memory file tree used as the working copy
// for all source manipulation and compilation in this repository.
//
// The JMake paper runs its toolchain inside a 126 GB tmpfs to avoid disk
// bottlenecks; fstree plays the same role here. Paths are slash-separated,
// relative, and cleaned on every operation, so "./a//b" and "a/b" name the
// same file.
//
// A Tree is persistent: its files, in full-path byte order, are split into
// leaves of at most leafMax (path, version) entries, and the tree holds an
// array of leaf pointers. Clone copies only that array and marks every leaf
// shared. A tree writes in place only to a leaf no other tree holds, and
// copies a shared leaf the first time it writes to it, so a checkout or a
// per-patch working copy costs O(files/leafMax) pointer copies, and a Write
// or Remove copies at most one leaf. Clone changes nothing of its receiver
// but those shared marks, which are atomic: any number of goroutines may
// clone and read one tree while nothing writes to it.
//
// Entries point to immutable file versions (see Version). Write makes a new
// version; Clone, copy-on-write and WriteVersion copy pointers, so a
// version's lazily computed hash and trigram signature are computed once
// per version and shared by every tree that holds it.
package fstree

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"strings"
	"sync/atomic"
)

// ErrNotExist is returned when a read or remove names a file that is not in
// the tree.
var ErrNotExist = errors.New("fstree: file does not exist")

// leafMax bounds a leaf's entries. A full leaf that gains an entry splits
// in two halves, so Write copies at most leafMax entries, and a clone of an
// n-file tree copies between n/leafMax and 2n/leafMax pointers.
const leafMax = 32

// leafGrow is how many entries a full leaf that gains one grows by.
const leafGrow = 8

// entry is one file: its cleaned path and its current version.
type entry struct {
	path string
	v    *Version
}

// leaf is a run of a tree's entries in path order.
type leaf struct {
	// shared is set by Clone when a second tree starts to hold the leaf,
	// and never cleared: no tree writes to a shared leaf's entries.
	shared atomic.Bool
	ents   []entry // never empty
}

// Tree is a mutable in-memory file tree. The zero value is an empty tree.
// Tree is not safe for concurrent mutation; the evaluation harness gives
// each worker its own Tree, mirroring the paper's 25 kernel copies.
type Tree struct {
	leaves []*leaf // in path order; this slice is the tree's own
	n      int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

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

// find returns the leaf that holds the cleaned path p or would receive
// it, p's position in that leaf, and whether p is there. The leaf is the
// last one whose first path is at most p, or the first leaf; an empty
// tree answers (0, 0, false).
func (t *Tree) find(p string) (li, ei int, ok bool) {
	if len(t.leaves) == 0 {
		return 0, 0, false
	}
	lo, hi := 1, len(t.leaves)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.leaves[m].ents[0].path <= p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	li = lo - 1
	ents := t.leaves[li].ents
	lo, hi = 0, len(ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ents[m].path < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return li, lo, lo < len(ents) && ents[lo].path == p
}

// own returns leaf li for writing, first replacing a shared leaf with a
// private copy.
func (t *Tree) own(li int) *leaf {
	l := t.leaves[li]
	if !l.shared.Load() {
		return l
	}
	c := &leaf{ents: slices.Clone(l.ents)}
	t.leaves[li] = c
	return c
}

// Lookup returns the version of the file at p. It allocates nothing, so
// callers that probe for files that may not exist use it instead of Read.
func (t *Tree) Lookup(p string) (*Version, bool) {
	li, ei, ok := t.find(Clean(p))
	if !ok {
		return nil, false
	}
	return t.leaves[li].ents[ei].v, true
}

// Write creates or replaces the file at p with content, as a new version.
func (t *Tree) Write(p, content string) { t.WriteVersion(p, NewVersion(content)) }

// WriteVersion creates or replaces the file at p with version v, which the
// tree then shares with every other holder of v.
func (t *Tree) WriteVersion(p string, v *Version) {
	p = Clean(p)
	if len(t.leaves) == 0 {
		t.leaves = []*leaf{{ents: []entry{{p, v}}}}
		t.n = 1
		return
	}
	li, ei, ok := t.find(p)
	if ok {
		t.own(li).ents[ei].v = v
		return
	}
	t.n++
	if ents := t.leaves[li].ents; len(ents) == leafMax {
		// Split into two new leaves; the entry goes to the half that
		// covers its position.
		h := leafMax / 2
		t.leaves[li] = &leaf{ents: slices.Clone(ents[:h])}
		t.leaves = slices.Insert(t.leaves, li+1, &leaf{ents: slices.Clone(ents[h:])})
		if ei > h {
			li, ei = li+1, ei-h
		}
	}
	l := t.leaves[li]
	shared := l.shared.Load()
	if !shared && len(l.ents) < cap(l.ents) {
		l.ents = slices.Insert(l.ents, ei, entry{p, v})
		return
	}
	// A shared leaf is copied with room for one entry; a full one grows by
	// leafGrow entries, so that a leaf holds little spare room and a tree
	// built by writes reallocates a leaf once per leafGrow inserts.
	room := len(l.ents) + 1
	if !shared {
		room = min(len(l.ents)+leafGrow, leafMax)
	}
	ents := make([]entry, len(l.ents)+1, room)
	copy(ents, l.ents[:ei])
	ents[ei] = entry{p, v}
	copy(ents[ei+1:], l.ents[ei:])
	if shared {
		t.leaves[li] = &leaf{ents: ents}
	} else {
		l.ents = ents
	}
}

// Read returns the content of the file at p.
func (t *Tree) Read(p string) (string, error) {
	v, ok := t.Lookup(p)
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return v.content, nil
}

// Exists reports whether a file exists at p. Directories are implicit:
// Exists is about files only.
func (t *Tree) Exists(p string) bool {
	_, ok := t.Lookup(p)
	return ok
}

// Remove deletes the file at p. A leaf left empty leaves the tree.
func (t *Tree) Remove(p string) error {
	li, ei, ok := t.find(Clean(p))
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	t.n--
	if len(t.leaves[li].ents) == 1 {
		t.leaves = slices.Delete(t.leaves, li, li+1)
		return nil
	}
	l := t.leaves[li]
	if l.shared.Load() {
		t.leaves[li] = &leaf{ents: slices.Concat(l.ents[:ei], l.ents[ei+1:])}
		return nil
	}
	l.ents = slices.Delete(l.ents, ei, ei+1)
	return nil
}

// Len returns the number of files in the tree.
func (t *Tree) Len() int { return t.n }

// Paths returns all file paths, sorted.
func (t *Tree) Paths() []string {
	out := make([]string, 0, t.n)
	for _, l := range t.leaves {
		for _, e := range l.ents {
			out = append(out, e.path)
		}
	}
	return out
}

// Under returns all file paths under directory dir, sorted. An empty dir
// returns every path.
func (t *Tree) Under(dir string) []string {
	prefix := Clean(dir)
	if prefix != "" {
		prefix += "/"
	}
	// Paths under dir form one run in path order, starting where prefix
	// would be inserted.
	li, ei, _ := t.find(prefix)
	var out []string
	for ; li < len(t.leaves); li, ei = li+1, 0 {
		for _, e := range t.leaves[li].ents[ei:] {
			if !strings.HasPrefix(e.path, prefix) {
				return out
			}
			out = append(out, e.path)
		}
	}
	return out
}

// Clone returns an independent copy of the tree that shares its leaves
// and versions. Used for history checkpoints, checkouts and per-worker
// working copies.
func (t *Tree) Clone() *Tree {
	for _, l := range t.leaves {
		if !l.shared.Load() {
			l.shared.Store(true)
		}
	}
	return &Tree{leaves: slices.Clone(t.leaves), n: t.n}
}

// WalkFunc is called by Walk for every file in sorted path order.
type WalkFunc func(path, content string) error

// Walk visits every file in sorted path order, stopping at the first
// error. fn must not modify the tree.
func (t *Tree) Walk(fn WalkFunc) error {
	for _, l := range t.leaves {
		for _, e := range l.ents {
			if err := fn(e.path, e.v.content); err != nil {
				return err
			}
		}
	}
	return nil
}
