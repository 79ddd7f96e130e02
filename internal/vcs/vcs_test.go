package vcs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"jmake/internal/fstree"
	"jmake/internal/textdiff"
)

func sig(name string) Signature {
	return Signature{Name: name, Email: strings.ToLower(name) + "@example.org",
		When: time.Date(2015, 11, 1, 12, 0, 0, 0, time.UTC)}
}

func strp(s string) *string { return &s }

func newTestRepo(t *testing.T) *Repo {
	t.Helper()
	base := fstree.New()
	base.Write("drivers/a.c", "int a;\n")
	base.Write("drivers/b.c", "int b;\n")
	base.Write("include/x.h", "#define X 1\n")
	return NewRepo(base, sig("Root"))
}

func TestCommitAndCheckout(t *testing.T) {
	r := newTestRepo(t)
	id1 := r.Commit(sig("Alice"), "edit a", map[string]*string{
		"drivers/a.c": strp("int a = 2;\n"),
	}, false)
	id2 := r.Commit(sig("Bob"), "add c, delete b", map[string]*string{
		"drivers/c.c": strp("int c;\n"),
		"drivers/b.c": nil,
	}, false)

	t1, err := r.CheckoutTree(id1)
	if err != nil {
		t.Fatalf("CheckoutTree(id1): %v", err)
	}
	if got, _ := t1.Read("drivers/a.c"); got != "int a = 2;\n" {
		t.Errorf("a.c at id1 = %q", got)
	}
	if !t1.Exists("drivers/b.c") {
		t.Error("b.c should still exist at id1")
	}
	t2, err := r.CheckoutTree(id2)
	if err != nil {
		t.Fatalf("CheckoutTree(id2): %v", err)
	}
	if t2.Exists("drivers/b.c") {
		t.Error("b.c should be deleted at id2")
	}
	if got, _ := t2.Read("drivers/c.c"); got != "int c;\n" {
		t.Errorf("c.c at id2 = %q", got)
	}
}

func TestNoopCommitChanges(t *testing.T) {
	r := newTestRepo(t)
	id := r.Commit(sig("Alice"), "noop", map[string]*string{
		"drivers/a.c": strp("int a;\n"), // identical content
		"nonexistent": nil,              // delete of missing file
	}, false)
	c, err := r.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(c.Changes) != 0 {
		t.Errorf("noop commit has %d changes, want 0", len(c.Changes))
	}
}

func TestBetweenWithFilters(t *testing.T) {
	r := newTestRepo(t)
	if err := r.Tag("v4.3", r.Head()); err != nil {
		t.Fatalf("Tag: %v", err)
	}
	idMod := r.Commit(sig("Alice"), "modify", map[string]*string{"drivers/a.c": strp("int a=1;\n")}, false)
	_ = r.Commit(sig("Bob"), "merge branch", nil, true)
	_ = r.Commit(sig("Carol"), "add new file", map[string]*string{"drivers/new.c": strp("x\n")}, false)
	idMod2 := r.Commit(sig("Dave"), "modify again", map[string]*string{"include/x.h": strp("#define X 2\n")}, false)
	if err := r.Tag("v4.4", r.Head()); err != nil {
		t.Fatalf("Tag: %v", err)
	}

	ids, err := r.Between("v4.3", "v4.4", LogOptions{NoMerges: true, OnlyModify: true})
	if err != nil {
		t.Fatalf("Between: %v", err)
	}
	want := []string{idMod, idMod2}
	if len(ids) != 2 || ids[0] != want[0] || ids[1] != want[1] {
		t.Errorf("Between = %v, want %v", ids, want)
	}

	all, err := r.Between("v4.3", "v4.4", LogOptions{})
	if err != nil {
		t.Fatalf("Between all: %v", err)
	}
	if len(all) != 4 {
		t.Errorf("Between unfiltered = %d commits, want 4", len(all))
	}

	if _, err := r.Between("v4.4", "v4.3", LogOptions{}); err == nil {
		t.Error("Between with reversed tags should fail")
	}
	if _, err := r.Between("nope", "v4.4", LogOptions{}); !errors.Is(err, ErrUnknownTag) {
		t.Errorf("unknown tag err = %v", err)
	}
}

func TestShowAndFileDiffs(t *testing.T) {
	r := newTestRepo(t)
	id := r.Commit(sig("Alice"), "tweak a and x", map[string]*string{
		"drivers/a.c": strp("int a = 5;\n"),
		"include/x.h": strp("#define X 2\n"),
	}, false)

	fds, err := r.FileDiffs(id)
	if err != nil {
		t.Fatalf("FileDiffs: %v", err)
	}
	if len(fds) != 2 {
		t.Fatalf("FileDiffs = %d diffs, want 2", len(fds))
	}
	if fds[0].NewPath != "drivers/a.c" || fds[1].NewPath != "include/x.h" {
		t.Errorf("paths = %s, %s", fds[0].NewPath, fds[1].NewPath)
	}
	// Applying the diff to the old blob must reproduce the new blob.
	c, _ := r.Get(id)
	for i, ch := range c.Changes {
		got, err := textdiff.Apply(r.Blob(ch.Old), fds[i])
		if err != nil {
			t.Fatalf("Apply diff %d: %v", i, err)
		}
		if got != r.Blob(ch.New) {
			t.Errorf("diff %d does not reproduce new content", i)
		}
	}

	show, err := r.Show(id)
	if err != nil {
		t.Fatalf("Show: %v", err)
	}
	for _, want := range []string{"commit " + id, "Author: Alice <alice@example.org>", "    tweak a and x", "diff --git a/drivers/a.c b/drivers/a.c"} {
		if !strings.Contains(show, want) {
			t.Errorf("Show output missing %q:\n%s", want, show)
		}
	}
}

func TestCheckoutAcrossCheckpoints(t *testing.T) {
	base := fstree.New()
	base.Write("f.c", "v0\n")
	r := NewRepo(base, sig("Root"))
	var ids []string
	n := checkpointEvery*2 + 37
	for i := 1; i <= n; i++ {
		ids = append(ids, r.Commit(sig("A"), fmt.Sprintf("v%d", i),
			map[string]*string{"f.c": strp(fmt.Sprintf("v%d\n", i))}, false))
	}
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		k := rnd.Intn(n)
		tr, err := r.CheckoutTree(ids[k])
		if err != nil {
			t.Fatalf("CheckoutTree: %v", err)
		}
		want := fmt.Sprintf("v%d\n", k+1)
		if got, _ := tr.Read("f.c"); got != want {
			t.Errorf("checkout %d: f.c = %q, want %q", k, got, want)
		}
	}
	// Checkout must not alias internal state: mutating the result leaves
	// later checkouts unaffected.
	tr, _ := r.CheckoutTree(ids[0])
	tr.Write("f.c", "corrupted")
	tr2, _ := r.CheckoutTree(ids[0])
	if got, _ := tr2.Read("f.c"); got != "v1\n" {
		t.Errorf("checkout aliased internal state: f.c = %q", got)
	}
}

func TestGetUnknown(t *testing.T) {
	r := newTestRepo(t)
	if _, err := r.Get("deadbeef"); !errors.Is(err, ErrUnknownCommit) {
		t.Errorf("Get unknown: err = %v, want ErrUnknownCommit", err)
	}
	if _, err := r.CheckoutTree("deadbeef"); !errors.Is(err, ErrUnknownCommit) {
		t.Errorf("CheckoutTree unknown: err = %v, want ErrUnknownCommit", err)
	}
}

func TestDeterministicIDs(t *testing.T) {
	build := func() []string {
		r := newTestRepo(t)
		var ids []string
		ids = append(ids, r.Commit(sig("Alice"), "one", map[string]*string{"drivers/a.c": strp("1\n")}, false))
		ids = append(ids, r.Commit(sig("Bob"), "two", map[string]*string{"drivers/b.c": strp("2\n")}, false))
		return ids
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("commit %d IDs differ: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestParentAndSince(t *testing.T) {
	r := newTestRepo(t)
	root := r.Head()
	id1 := r.Commit(sig("Alice"), "one", map[string]*string{"drivers/a.c": strp("1\n")}, false)
	idMerge := r.Commit(sig("Bob"), "merge branch", nil, true)
	id2 := r.Commit(sig("Carol"), "two", map[string]*string{"drivers/b.c": strp("2\n")}, false)

	if p, err := r.Parent(root); err != nil || p != "" {
		t.Errorf("Parent(root) = %q, %v; want \"\", nil", p, err)
	}
	if p, err := r.Parent(id1); err != nil || p != root {
		t.Errorf("Parent(id1) = %q, %v; want root", p, err)
	}
	if p, err := r.Parent(id2); err != nil || p != idMerge {
		t.Errorf("Parent(id2) = %q, %v; want the merge commit", p, err)
	}
	if _, err := r.Parent("deadbeef"); !errors.Is(err, ErrUnknownCommit) {
		t.Errorf("Parent unknown: err = %v", err)
	}

	// Since is unfiltered: merges included, oldest first — a follower must
	// apply every commit even when it only checks a filtered subset.
	seq, err := r.Since(root)
	if err != nil {
		t.Fatalf("Since: %v", err)
	}
	want := []string{id1, idMerge, id2}
	if len(seq) != len(want) {
		t.Fatalf("Since(root) = %d commits, want %d", len(seq), len(want))
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Errorf("Since(root)[%d] = %s, want %s", i, seq[i], want[i])
		}
	}
	if seq, err := r.Since(id2); err != nil || len(seq) != 0 {
		t.Errorf("Since(head) = %v, %v; want empty", seq, err)
	}
	if _, err := r.Since("deadbeef"); !errors.Is(err, ErrUnknownCommit) {
		t.Errorf("Since unknown: err = %v", err)
	}

	// Range is Since cut at its second commit, and empty unless that
	// commit is after the first.
	for _, tc := range []struct {
		from, to string
		want     []string
	}{
		{root, id2, []string{id1, idMerge, id2}},
		{root, idMerge, []string{id1, idMerge}},
		{id1, id2, []string{idMerge, id2}},
		{id1, id1, nil},
		{id2, id1, nil},
	} {
		got, err := r.Range(tc.from, tc.to)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("Range(%.7s, %.7s) = %v, %v; want %v", tc.from, tc.to, got, err, tc.want)
		}
	}
	for _, ids := range [][2]string{{root, "deadbeef"}, {"deadbeef", id1}} {
		if _, err := r.Range(ids[0], ids[1]); !errors.Is(err, ErrUnknownCommit) {
			t.Errorf("Range(%.8s, %.8s): err = %v, want ErrUnknownCommit", ids[0], ids[1], err)
		}
	}
}

// TestRenameAsDeleteAdd: this VCS has no rename tracking — a rename is a
// delete plus an add in one commit, which is exactly how JMake's driver
// sees it. The commit must be excluded by OnlyModify, diff as a full
// removal plus a full addition, and check out correctly.
func TestRenameAsDeleteAdd(t *testing.T) {
	r := newTestRepo(t)
	if err := r.Tag("v4.3", r.Head()); err != nil {
		t.Fatal(err)
	}
	id := r.Commit(sig("Alice"), "rename a.c to a2.c", map[string]*string{
		"drivers/a.c":  nil,
		"drivers/a2.c": strp("int a;\n"),
	}, false)
	if err := r.Tag("v4.4", r.Head()); err != nil {
		t.Fatal(err)
	}

	c, err := r.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Changes) != 2 {
		t.Fatalf("rename commit has %d changes, want 2 (delete + add)", len(c.Changes))
	}
	sawDelete, sawAdd := false, false
	for _, ch := range c.Changes {
		switch ch.Path {
		case "drivers/a.c":
			sawDelete = ch.New == "" && ch.Old != ""
		case "drivers/a2.c":
			sawAdd = ch.Old == "" && ch.New != ""
		}
	}
	if !sawDelete || !sawAdd {
		t.Errorf("rename not recorded as delete+add: delete=%v add=%v", sawDelete, sawAdd)
	}

	fds, err := r.FileDiffs(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(fds) != 2 {
		t.Fatalf("FileDiffs = %d diffs, want 2", len(fds))
	}
	for _, fd := range fds {
		adds, dels := 0, 0
		for _, h := range fd.Hunks {
			for _, ln := range h.Lines {
				switch ln.Op {
				case '+':
					adds++
				case '-':
					dels++
				}
			}
		}
		switch fd.NewPath {
		case "drivers/a.c":
			if adds != 0 || dels == 0 {
				t.Errorf("delete side: %d adds, %d dels", adds, dels)
			}
		case "drivers/a2.c":
			if adds == 0 || dels != 0 {
				t.Errorf("add side: %d adds, %d dels", adds, dels)
			}
		}
	}

	tr, err := r.CheckoutTree(id)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exists("drivers/a.c") {
		t.Error("renamed-away path still exists after checkout")
	}
	if got, _ := tr.Read("drivers/a2.c"); got != "int a;\n" {
		t.Errorf("renamed-to path = %q", got)
	}

	// The evaluation window (--diff-filter=M) must not select it.
	ids, err := r.Between("v4.3", "v4.4", LogOptions{NoMerges: true, OnlyModify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("OnlyModify window selected the rename commit: %v", ids)
	}
}

// TestMergeAndEmptyDiffCommits: merges and empty-diff commits are
// filtered from the evaluation window but still part of history — their
// tree effects must survive checkout and Since so a follower applying
// everything stays in sync.
func TestMergeAndEmptyDiffCommits(t *testing.T) {
	r := newTestRepo(t)
	if err := r.Tag("v4.3", r.Head()); err != nil {
		t.Fatal(err)
	}
	// A merge that carries a tree change (the usual case: the merged
	// branch's work lands with the merge commit).
	idMerge := r.Commit(sig("Bob"), "merge branch with work", map[string]*string{
		"drivers/a.c": strp("int a = 9;\n"),
	}, true)
	// An empty-diff commit: same content rewritten.
	idEmpty := r.Commit(sig("Carol"), "rewrite same content", map[string]*string{
		"drivers/a.c": strp("int a = 9;\n"),
	}, false)
	idMod := r.Commit(sig("Dave"), "real change", map[string]*string{
		"drivers/b.c": strp("int b = 1;\n"),
	}, false)
	if err := r.Tag("v4.4", r.Head()); err != nil {
		t.Fatal(err)
	}

	cEmpty, err := r.Get(idEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if len(cEmpty.Changes) != 0 {
		t.Fatalf("empty-diff commit recorded %d changes", len(cEmpty.Changes))
	}
	if fds, err := r.FileDiffs(idEmpty); err != nil || len(fds) != 0 {
		t.Errorf("FileDiffs(empty) = %v, %v; want no diffs", fds, err)
	}

	ids, err := r.Between("v4.3", "v4.4", LogOptions{NoMerges: true, OnlyModify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != idMod {
		t.Errorf("window = %v, want only the real change %s", ids, idMod)
	}

	// The merge's tree effect is visible at and after the merge.
	tr, err := r.CheckoutTree(idEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Read("drivers/a.c"); got != "int a = 9;\n" {
		t.Errorf("merge change lost by checkout: a.c = %q", got)
	}
	// Since hands a follower the full unfiltered tail, merge included.
	seq, err := r.Since(idMerge)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 || seq[0] != idEmpty || seq[1] != idMod {
		t.Errorf("Since(merge) = %v, want [%s %s]", seq, idEmpty, idMod)
	}
}

// TestCommitCleansPaths: a key that cleans to an existing path edits that
// file; it is neither a delete nor a second file.
func TestCommitCleansPaths(t *testing.T) {
	r := newTestRepo(t)
	id := r.Commit(sig("Alice"), "edit a via ./", map[string]*string{
		"./drivers/a.c": strp("int a = 2;\n"),
	}, false)
	c, err := r.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Changes) != 1 || c.Changes[0].Path != "drivers/a.c" || c.Changes[0].Old == "" ||
		r.Blob(c.Changes[0].New) != "int a = 2;\n" {
		t.Fatalf("Changes = %+v, want one edit of drivers/a.c", c.Changes)
	}
	tr, err := r.CheckoutTree(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tr.Read("drivers/a.c"); err != nil || got != "int a = 2;\n" {
		t.Errorf("checkout drivers/a.c = %q, %v", got, err)
	}
	if tr.Len() != 3 {
		t.Errorf("checkout has %d files, want 3", tr.Len())
	}

	// Keys that clean to one path are applied once; the last in sorted key
	// order wins ("./drivers/b.c" < "drivers/b.c").
	id = r.Commit(sig("Bob"), "two spellings", map[string]*string{
		"./drivers/b.c": nil,
		"drivers/b.c":   strp("int b = 3;\n"),
	}, false)
	if c, _ := r.Get(id); len(c.Changes) != 1 || r.Blob(c.Changes[0].New) != "int b = 3;\n" {
		t.Fatalf("Changes = %+v, want one edit of drivers/b.c", c.Changes)
	}
}

// replayHistory commits n seeded random commits over a pool of paths,
// adding, editing and deleting files, and returns the IDs with the file
// map after each commit, tracked independently of the repository.
func replayHistory(t *testing.T, seed int64, n int) (*Repo, []string, []map[string]string) {
	t.Helper()
	base := fstree.New()
	files := map[string]string{}
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("d%d/f%02d.c", i%5, i)
		base.Write(p, "v0 "+p)
		files[p] = "v0 " + p
	}
	r := NewRepo(base, sig("Root"))
	ids := []string{r.Head()}
	states := []map[string]string{copyFiles(files)}
	rnd := rand.New(rand.NewSource(seed))
	for i := 1; i <= n; i++ {
		edit := map[string]*string{}
		for k := 1 + rnd.Intn(4); k > 0; k-- {
			p := fmt.Sprintf("d%d/f%02d.c", rnd.Intn(5), rnd.Intn(60))
			if rnd.Intn(3) == 0 {
				edit[p] = nil
				delete(files, p)
				continue
			}
			content := fmt.Sprintf("v%d %s", i, p)
			edit[p] = &content
			files[p] = content
		}
		ids = append(ids, r.Commit(sig("A"), fmt.Sprintf("c%d", i), edit, false))
		states = append(states, copyFiles(files))
	}
	return r, ids, states
}

func copyFiles(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for p, c := range m {
		out[p] = c
	}
	return out
}

func sameFiles(tr *fstree.Tree, want map[string]string) error {
	if tr.Len() != len(want) {
		return fmt.Errorf("%d files, want %d", tr.Len(), len(want))
	}
	paths := tr.Paths()
	if len(paths) != len(want) {
		return fmt.Errorf("Paths lists %d files, want %d", len(paths), len(want))
	}
	for _, p := range paths {
		got, _ := tr.Read(p)
		if c, ok := want[p]; !ok || got != c {
			return fmt.Errorf("%s = %q, want %q (present: %v)", p, got, c, ok)
		}
	}
	return nil
}

// TestCheckoutEqualsReplay: every commit's checkout equals a replay of the
// history from the root, over adds, edits and deletes that cross several
// checkpoints and split and empty the tip's leaves.
func TestCheckoutEqualsReplay(t *testing.T) {
	n := checkpointEvery*5 + 7
	r, ids, states := replayHistory(t, 3, n)
	if len(r.checkpoints) != n/checkpointEvery+1 {
		t.Fatalf("%d checkpoints for %d commits", len(r.checkpoints), n)
	}
	for i, id := range ids {
		tr, err := r.CheckoutTree(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFiles(tr, states[i]); err != nil {
			t.Fatalf("checkout of commit %d: %v", i, err)
		}
		// A write to the checkout reaches neither the repository nor a
		// later checkout of the same commit.
		tr.Write("d0/f00.c", "scribble")
		_ = tr.Remove("d1/f01.c")
	}
	for i := len(ids) - 1; i >= 0; i -= 17 {
		tr, _ := r.CheckoutTree(ids[i])
		if err := sameFiles(tr, states[i]); err != nil {
			t.Fatalf("second checkout of commit %d: %v", i, err)
		}
	}
	for p, want := range states[n] {
		if got, err := r.ReadTip(p); err != nil || got != want {
			t.Errorf("tip %s = %q, %v; want %q", p, got, err, want)
		}
	}
}

// TestConcurrentCheckouts is the service pattern under the race detector:
// several goroutines check out and read the same range of commits, so
// they clone the same checkpoints at once, while others write to their
// own checkouts.
func TestConcurrentCheckouts(t *testing.T) {
	r, ids, states := replayHistory(t, 5, checkpointEvery*3)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := checkpointEvery - 4; i < len(ids); i += 3 {
				tr, err := r.CheckoutTree(ids[i])
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 1 {
					for k := 0; k < 12; k++ {
						tr.Write(fmt.Sprintf("d%d/w%d-%d.c", k%5, g, k), "w")
					}
					_ = tr.Remove("d0/f00.c")
					_ = tr.Clone()
					continue
				}
				if err := sameFiles(tr, states[i]); err != nil {
					t.Errorf("goroutine %d, commit %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOneVersionPerBlob: the repository keeps one file version per blob.
// Two checkouts of one commit, a checkout and the tip, and a checkout of a
// parent advanced by Apply hold the same version pointer for every path,
// so hashes and signatures computed on one are there for all; and files
// with equal content share one version from the root commit on.
func TestOneVersionPerBlob(t *testing.T) {
	r, ids, _ := replayHistory(t, 9, checkpointEvery*3+5)
	sameVersions := func(a, b *fstree.Tree) error {
		if !slices.Equal(a.Paths(), b.Paths()) {
			return fmt.Errorf("paths differ")
		}
		for _, p := range a.Paths() {
			va, _ := a.Lookup(p)
			vb, _ := b.Lookup(p)
			if va != vb {
				return fmt.Errorf("%s: versions %p and %p", p, va, vb)
			}
		}
		return nil
	}
	for i := 1; i < len(ids); i += 7 {
		a, _ := r.CheckoutTree(ids[i])
		b, _ := r.CheckoutTree(ids[i])
		if err := sameVersions(a, b); err != nil {
			t.Fatalf("two checkouts of commit %d: %v", i, err)
		}
		parent, _ := r.CheckoutTree(ids[i-1])
		if _, err := r.Apply(parent, ids[i]); err != nil {
			t.Fatal(err)
		}
		if err := sameVersions(a, parent); err != nil {
			t.Fatalf("checkout of commit %d and its parent's advanced by Apply: %v", i, err)
		}
	}
	head, _ := r.CheckoutTree(r.Head())
	if err := sameVersions(head, r.tip); err != nil {
		t.Fatalf("checkout of the head and the tip: %v", err)
	}

	base := fstree.New()
	base.Write("a.c", "int same;\n")
	base.Write("b.c", "int same;\n")
	r = NewRepo(base, sig("Root"))
	r.Commit(sig("A"), "same again", map[string]*string{"c.c": strp("int same;\n")}, false)
	tr, _ := r.CheckoutTree(r.Head())
	va, _ := tr.Lookup("a.c")
	for _, p := range []string{"b.c", "c.c"} {
		if v, _ := tr.Lookup(p); v != va {
			t.Errorf("%s holds version %p, a.c with equal content %p", p, v, va)
		}
	}
	if _, err := r.Apply(tr, "deadbeef"); !errors.Is(err, ErrUnknownCommit) {
		t.Errorf("Apply unknown: err = %v, want ErrUnknownCommit", err)
	}
}
