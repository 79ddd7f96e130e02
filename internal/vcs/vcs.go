// Package vcs implements a minimal content-addressed version-control store:
// linear commit history, blob storage, tags, snapshot checkout, and
// git-show-style patch rendering.
//
// The JMake paper drives its evaluation from `git log -w --diff-filter=M
// --no-merges` over Linux v4.3..v4.4 and checks out one snapshot per patch
// with `git reset --hard` (paper §V-A). This package provides those exact
// capabilities over the synthetic history produced by internal/commitgen.
package vcs

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"jmake/internal/fstree"
	"jmake/internal/textdiff"
)

// ErrUnknownCommit is returned for lookups of commit IDs not in the repo.
var ErrUnknownCommit = errors.New("vcs: unknown commit")

// ErrUnknownTag is returned for lookups of undefined tags.
var ErrUnknownTag = errors.New("vcs: unknown tag")

// Hash is the hex content hash of a blob.
type Hash string

// Signature identifies the author of a commit.
type Signature struct {
	Name  string
	Email string
	When  time.Time
}

// Change records one file touched by a commit. An empty Old means the file
// was created; an empty New means it was deleted.
type Change struct {
	Path string
	Old  Hash
	New  Hash
}

// Commit is one node of the (linear) history.
type Commit struct {
	ID      string
	Parent  string // empty for the root commit
	Author  Signature
	Subject string
	IsMerge bool
	Changes []Change
}

// checkpointEvery controls how often a tree snapshot is retained to bound
// checkout cost. A snapshot is a clone of the tip, so it shares the tip's
// copy-on-write base and costs only the tip's overlay.
const checkpointEvery = 32

// Repo is an append-only repository. It is safe for concurrent reads after
// all commits have been appended; appending is not concurrency-safe.
type Repo struct {
	blobs       map[Hash]string
	commits     map[string]*Commit
	order       []string // commit IDs, oldest first, including root
	index       map[string]int
	tags        map[string]string
	checkpoints []*fstree.Tree // [i]: snapshot after commit i*checkpointEvery
	tip         *fstree.Tree
}

// NewRepo creates a repository whose root commit holds a copy of base.
func NewRepo(base *fstree.Tree, author Signature) *Repo {
	r := &Repo{
		blobs:   make(map[Hash]string),
		commits: make(map[string]*Commit),
		index:   make(map[string]int),
		tags:    make(map[string]string),
		tip:     base.Clone(),
	}
	root := &Commit{Author: author, Subject: "initial import"}
	for _, p := range r.tip.Paths() {
		c, _ := r.tip.Read(p)
		h := r.putBlob(c)
		root.Changes = append(root.Changes, Change{Path: p, New: h})
	}
	root.ID = r.commitID(root)
	r.commits[root.ID] = root
	r.index[root.ID] = 0
	r.order = append(r.order, root.ID)
	r.checkpoints = append(r.checkpoints, r.tip.Clone())
	return r
}

func (r *Repo) putBlob(content string) Hash {
	sum := sha1.Sum([]byte(content))
	h := Hash(hex.EncodeToString(sum[:]))
	if _, ok := r.blobs[h]; !ok {
		r.blobs[h] = content
	}
	return h
}

func (r *Repo) commitID(c *Commit) string {
	hsh := sha1.New()
	fmt.Fprintf(hsh, "parent %s\nauthor %s <%s> %d\nsubject %s\nmerge %v\n",
		c.Parent, c.Author.Name, c.Author.Email, c.Author.When.Unix(), c.Subject, c.IsMerge)
	for _, ch := range c.Changes {
		fmt.Fprintf(hsh, "%s %s %s\n", ch.Path, ch.Old, ch.New)
	}
	return hex.EncodeToString(hsh.Sum(nil))
}

// Commit appends a commit that applies files to the tip: for each entry, a
// non-nil value writes the file and nil deletes it. It returns the new
// commit's ID. Paths are cleaned and then applied in sorted order; when
// several keys clean to the same path, the last key in sorted order wins.
func (r *Repo) Commit(author Signature, subject string, files map[string]*string, isMerge bool) string {
	c := &Commit{Parent: r.order[len(r.order)-1], Author: author, Subject: subject, IsMerge: isMerge}
	keys := make([]string, 0, len(files))
	for p := range files {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	clean := make(map[string]*string, len(files))
	var paths []string
	for _, k := range keys {
		p := fstree.Clean(k)
		if _, dup := clean[p]; !dup {
			paths = append(paths, p)
		}
		clean[p] = files[k]
	}
	sort.Strings(paths)
	for _, p := range paths {
		var old Hash
		if prev, err := r.tip.Read(p); err == nil {
			old = r.putBlob(prev)
		}
		nv := clean[p]
		if nv == nil {
			if old == "" {
				continue // deleting a nonexistent file is a no-op
			}
			if err := r.tip.Remove(p); err != nil {
				continue
			}
			c.Changes = append(c.Changes, Change{Path: p, Old: old})
			continue
		}
		if old != "" && r.blobs[old] == *nv {
			continue // unchanged content is not a change
		}
		h := r.putBlob(*nv)
		r.tip.Write(p, *nv)
		c.Changes = append(c.Changes, Change{Path: p, Old: old, New: h})
	}
	c.ID = r.commitID(c)
	idx := len(r.order)
	r.commits[c.ID] = c
	r.index[c.ID] = idx
	r.order = append(r.order, c.ID)
	if idx%checkpointEvery == 0 {
		r.checkpoints = append(r.checkpoints, r.tip.Clone())
	}
	return c.ID
}

// Tag associates name with a commit ID.
func (r *Repo) Tag(name, id string) error {
	if _, ok := r.commits[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownCommit, id)
	}
	r.tags[name] = id
	return nil
}

// TagID resolves a tag name.
func (r *Repo) TagID(name string) (string, error) {
	id, ok := r.tags[name]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownTag, name)
	}
	return id, nil
}

// Get returns the commit with the given ID.
func (r *Repo) Get(id string) (*Commit, error) {
	c, ok := r.commits[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCommit, id)
	}
	return c, nil
}

// Blob returns the content stored under h; missing hashes return "".
func (r *Repo) Blob(h Hash) string { return r.blobs[h] }

// ReadTip returns the content of path at the current tip. The commit
// generator uses it to base each synthetic edit on the file's current
// state.
func (r *Repo) ReadTip(path string) (string, error) { return r.tip.Read(path) }

// Len returns the number of commits including the root.
func (r *Repo) Len() int { return len(r.order) }

// Head returns the ID of the most recent commit.
func (r *Repo) Head() string { return r.order[len(r.order)-1] }

// Parent returns the ID of the commit immediately before id in history
// order, or "" when id is the root commit. This is the seed position a
// commit-stream follower needs: check out Parent(id), then apply id.
func (r *Repo) Parent(id string) (string, error) {
	idx, ok := r.index[id]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownCommit, id)
	}
	if idx == 0 {
		return "", nil
	}
	return r.order[idx-1], nil
}

// Since returns every commit ID strictly after `id` in history order,
// oldest first and unfiltered — merges and empty-diff commits included,
// because a follower must apply all of them to keep its working tree in
// sync even when it only checks a filtered subset.
func (r *Repo) Since(id string) ([]string, error) {
	idx, ok := r.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCommit, id)
	}
	out := make([]string, len(r.order)-idx-1)
	copy(out, r.order[idx+1:])
	return out, nil
}

// LogOptions mirror the git-log filters used by the paper's evaluation.
type LogOptions struct {
	NoMerges   bool // --no-merges
	OnlyModify bool // --diff-filter=M: keep only commits where every change modifies an existing file
}

// Between returns the commit IDs after `fromTag` up to and including
// `toTag`, oldest first, applying opts.
func (r *Repo) Between(fromTag, toTag string, opts LogOptions) ([]string, error) {
	from, err := r.TagID(fromTag)
	if err != nil {
		return nil, err
	}
	to, err := r.TagID(toTag)
	if err != nil {
		return nil, err
	}
	fi, ti := r.index[from], r.index[to]
	if fi > ti {
		return nil, fmt.Errorf("vcs: tag %s is newer than %s", fromTag, toTag)
	}
	var out []string
	for i := fi + 1; i <= ti; i++ {
		c := r.commits[r.order[i]]
		if opts.NoMerges && c.IsMerge {
			continue
		}
		if opts.OnlyModify && !onlyModifies(c) {
			continue
		}
		out = append(out, c.ID)
	}
	return out, nil
}

func onlyModifies(c *Commit) bool {
	if len(c.Changes) == 0 {
		return false
	}
	for _, ch := range c.Changes {
		if ch.Old == "" || ch.New == "" {
			return false
		}
	}
	return true
}

// CheckoutTree returns a fresh tree holding the snapshot as of commit id
// (after applying it), equivalent to `git reset --hard id` into a clean
// working copy.
func (r *Repo) CheckoutTree(id string) (*fstree.Tree, error) {
	idx, ok := r.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCommit, id)
	}
	// NewRepo and Commit keep a checkpoint at every multiple of
	// checkpointEvery, so at most checkpointEvery-1 commits replay.
	t := r.checkpoints[idx/checkpointEvery].Clone()
	for i := idx - idx%checkpointEvery + 1; i <= idx; i++ {
		for _, ch := range r.commits[r.order[i]].Changes {
			if ch.New == "" {
				// Deletions of files missing from the checkpoint are no-ops.
				_ = t.Remove(ch.Path)
				continue
			}
			t.Write(ch.Path, r.blobs[ch.New])
		}
	}
	return t, nil
}

// FileDiffs returns the structured per-file diffs of a commit, sorted by
// path. Whitespace-only line changes are preserved (JMake's driver passes
// -w to git; the commit generator never produces whitespace-only edits, so
// the distinction is immaterial here).
func (r *Repo) FileDiffs(id string) ([]textdiff.FileDiff, error) {
	c, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	var out []textdiff.FileDiff
	for _, ch := range c.Changes {
		fd, changed := textdiff.Diff(ch.Path, ch.Path, r.blobs[ch.Old], r.blobs[ch.New])
		if changed {
			out = append(out, fd)
		}
	}
	return out, nil
}

// Show renders the commit as `git show` does: a header block followed by
// the unified diff of every changed file.
func (r *Repo) Show(id string) (string, error) {
	c, err := r.Get(id)
	if err != nil {
		return "", err
	}
	fds, err := r.FileDiffs(id)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "commit %s\n", c.ID)
	fmt.Fprintf(&b, "Author: %s <%s>\n", c.Author.Name, c.Author.Email)
	fmt.Fprintf(&b, "Date:   %s\n\n", c.Author.When.Format(time.ANSIC))
	fmt.Fprintf(&b, "    %s\n\n", c.Subject)
	b.WriteString(textdiff.FormatPatch(fds))
	return b.String(), nil
}
