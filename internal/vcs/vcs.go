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
	// versions[i] is the repository's version of Changes[i].New, nil for
	// a deletion, resolved when the commit is appended.
	versions []*fstree.Version
}

// checkpointEvery controls how often a tree snapshot is retained to bound
// checkout cost. A snapshot is a clone of the tip: it shares the tip's
// leaves, and the tip copies a leaf the first time it writes to it.
const checkpointEvery = 32

// Repo is an append-only repository. It is safe for concurrent reads after
// all commits have been appended; appending is not concurrency-safe.
//
// The repository keeps exactly one fstree.Version per blob, and the tip,
// the checkpoints and every checkout hold those versions by reference, so
// a version's content hash and trigram signature are computed once per
// blob and live as long as the repository.
type Repo struct {
	blobs       map[Hash]*fstree.Version
	log         []*Commit // oldest first, including root
	index       map[string]int
	tags        map[string]string
	checkpoints []*fstree.Tree // [i]: snapshot after commit i*checkpointEvery
	tip         *fstree.Tree
	tipBlobs    map[string]Hash // the blob of each tip file
}

// NewRepo creates a repository whose root commit holds a copy of base.
func NewRepo(base *fstree.Tree, author Signature) *Repo {
	r := &Repo{
		blobs:    make(map[Hash]*fstree.Version),
		index:    make(map[string]int),
		tags:     make(map[string]string),
		tip:      base.Clone(),
		tipBlobs: make(map[string]Hash, base.Len()),
	}
	root := &Commit{Author: author, Subject: "initial import"}
	for _, p := range r.tip.Paths() {
		v, _ := r.tip.Lookup(p)
		h, canon := r.putBlob(v.Content(), v)
		if canon != v {
			r.tip.WriteVersion(p, canon) // a content seen at an earlier path
		}
		r.tipBlobs[p] = h
		root.Changes = append(root.Changes, Change{Path: p, New: h})
		root.versions = append(root.versions, canon)
	}
	r.appendCommit(root)
	return r
}

// putBlob stores content and returns its hash and the blob's one version:
// v, or a new version when v is nil, if the blob is new.
func (r *Repo) putBlob(content string, v *fstree.Version) (Hash, *fstree.Version) {
	sum := sha1.Sum([]byte(content))
	h := Hash(hex.EncodeToString(sum[:]))
	if have, ok := r.blobs[h]; ok {
		return h, have
	}
	if v == nil {
		v = fstree.NewVersion(content)
	}
	r.blobs[h] = v
	return h, v
}

// appendCommit gives c its ID and appends it, keeping a checkpoint of the
// tip at every multiple of checkpointEvery.
func (r *Repo) appendCommit(c *Commit) {
	c.ID = r.commitID(c)
	idx := len(r.log)
	r.index[c.ID] = idx
	r.log = append(r.log, c)
	if idx%checkpointEvery == 0 {
		r.checkpoints = append(r.checkpoints, r.tip.Clone())
	}
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
	c := &Commit{Parent: r.Head(), Author: author, Subject: subject, IsMerge: isMerge}
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
		old, had := r.tipBlobs[p]
		nv := clean[p]
		if nv == nil {
			if !had {
				continue // deleting a nonexistent file is a no-op
			}
			_ = r.tip.Remove(p) // present: tipBlobs mirrors the tip
			delete(r.tipBlobs, p)
			c.Changes = append(c.Changes, Change{Path: p, Old: old})
			c.versions = append(c.versions, nil)
			continue
		}
		if had && r.blobs[old].Content() == *nv {
			continue // unchanged content is not a change
		}
		h, v := r.putBlob(*nv, nil)
		r.tip.WriteVersion(p, v)
		r.tipBlobs[p] = h
		c.Changes = append(c.Changes, Change{Path: p, Old: old, New: h})
		c.versions = append(c.versions, v)
	}
	r.appendCommit(c)
	return c.ID
}

// Tag associates name with a commit ID.
func (r *Repo) Tag(name, id string) error {
	if _, ok := r.index[id]; !ok {
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
	idx, ok := r.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCommit, id)
	}
	return r.log[idx], nil
}

// Blob returns the content stored under h; missing hashes return "".
func (r *Repo) Blob(h Hash) string {
	if v, ok := r.blobs[h]; ok {
		return v.Content()
	}
	return ""
}

// ReadTip returns the content of path at the current tip. The commit
// generator uses it to base each synthetic edit on the file's current
// state.
func (r *Repo) ReadTip(path string) (string, error) { return r.tip.Read(path) }

// Len returns the number of commits including the root.
func (r *Repo) Len() int { return len(r.log) }

// Head returns the ID of the most recent commit.
func (r *Repo) Head() string { return r.log[len(r.log)-1].ID }

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
	return r.log[idx-1].ID, nil
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
	return r.ids(idx+1, len(r.log)), nil
}

// Range returns the IDs of the commits after from, up to and including
// to, oldest first: the commits a follower at from applies to reach to.
// It is empty when to is not after from, and copies only the IDs it
// returns.
func (r *Repo) Range(from, to string) ([]string, error) {
	fi, ok := r.index[from]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCommit, from)
	}
	ti, ok := r.index[to]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCommit, to)
	}
	if ti <= fi {
		return nil, nil
	}
	return r.ids(fi+1, ti+1), nil
}

// ids returns the IDs of the commits at indexes [lo, hi).
func (r *Repo) ids(lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for _, c := range r.log[lo:hi] {
		out = append(out, c.ID)
	}
	return out
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
	for _, c := range r.log[fi+1 : ti+1] {
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
// working copy. It clones the nearest checkpoint and replays the commits
// after it, so at most checkpointEvery-1 commits replay.
func (r *Repo) CheckoutTree(id string) (*fstree.Tree, error) {
	idx, ok := r.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCommit, id)
	}
	t := r.checkpoints[idx/checkpointEvery].Clone()
	for _, c := range r.log[idx-idx%checkpointEvery+1 : idx+1] {
		replay(t, c)
	}
	return t, nil
}

// Apply applies commit id's changes to t and returns the commit. Applied
// to a checkout of id's parent, it turns it into a checkout of id.
func (r *Repo) Apply(t *fstree.Tree, id string) (*Commit, error) {
	c, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	replay(t, c)
	return c, nil
}

// replay writes c's versions into t and removes the files c deletes.
func replay(t *fstree.Tree, c *Commit) {
	for i, ch := range c.Changes {
		if v := c.versions[i]; v != nil {
			t.WriteVersion(ch.Path, v)
			continue
		}
		// Deletions of files missing from t are no-ops.
		_ = t.Remove(ch.Path)
	}
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
		fd, changed := textdiff.Diff(ch.Path, ch.Path, r.Blob(ch.Old), r.Blob(ch.New))
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
