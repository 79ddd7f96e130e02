package textdiff

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustDiff(t *testing.T, a, b string) FileDiff {
	t.Helper()
	fd, changed := Diff("f.c", "f.c", a, b)
	if !changed {
		t.Fatal("Diff reported no change")
	}
	return fd
}

func TestDiffIdentical(t *testing.T) {
	if _, changed := Diff("a", "a", "x\ny\n", "x\ny\n"); changed {
		t.Error("identical contents reported as changed")
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	tests := []struct{ name, a, b string }{
		{"modify middle", "a\nb\nc\nd\ne\n", "a\nb\nC\nd\ne\n"},
		{"add line", "a\nb\nc\n", "a\nb\nnew\nc\n"},
		{"remove line", "a\nb\nc\nd\n", "a\nc\nd\n"},
		{"append at end", "a\nb\n", "a\nb\nc\n"},
		{"prepend", "a\nb\n", "z\na\nb\n"},
		{"empty to content", "", "a\nb\n"},
		{"content to empty", "a\nb\n", ""},
		{"two far changes", "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n13\n14\n15\n", "1\nX\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n13\nY\n15\n"},
		{"adjacent changes merge", "1\n2\n3\n4\n5\n6\n7\n8\n", "1\nA\n3\n4\nB\n6\n7\n8\n"},
		{"total rewrite", "a\nb\nc\n", "x\ny\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fd, changed := Diff("f", "f", tt.a, tt.b)
			if !changed {
				t.Fatal("no change reported")
			}
			got, err := Apply(tt.a, fd)
			if err != nil {
				t.Fatalf("Apply: %v\npatch:\n%s", err, Format(fd))
			}
			if got != tt.b {
				t.Errorf("Apply = %q, want %q\npatch:\n%s", got, tt.b, Format(fd))
			}
		})
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	a := "one\ntwo\nthree\nfour\nfive\nsix\nseven\neight\nnine\nten\n"
	b := "one\ntwo\nTHREE\nfour\nfive\nsix\nseven\neight\nNINE\nten\nextra\n"
	fd := mustDiff(t, a, b)
	text := Format(fd)
	parsed, err := ParsePatch(text)
	if err != nil {
		t.Fatalf("ParsePatch: %v\n%s", err, text)
	}
	if len(parsed) != 1 {
		t.Fatalf("parsed %d file diffs, want 1", len(parsed))
	}
	if !reflect.DeepEqual(parsed[0], fd) {
		t.Errorf("round trip mismatch:\norig: %+v\nparsed: %+v", fd, parsed[0])
	}
	got, err := Apply(a, parsed[0])
	if err != nil {
		t.Fatalf("Apply parsed: %v", err)
	}
	if got != b {
		t.Errorf("Apply parsed = %q, want %q", got, b)
	}
}

func TestParseMultiFilePatch(t *testing.T) {
	a1, b1 := "x\ny\n", "x\nz\n"
	a2, b2 := "p\nq\n", "p\nq\nr\n"
	fd1 := mustDiff(t, a1, b1)
	fd2, _ := Diff("g.h", "g.h", a2, b2)
	text := FormatPatch([]FileDiff{fd1, fd2})
	parsed, err := ParsePatch(text)
	if err != nil {
		t.Fatalf("ParsePatch: %v", err)
	}
	if len(parsed) != 2 {
		t.Fatalf("parsed %d diffs, want 2", len(parsed))
	}
	if parsed[0].NewPath != "f.c" || parsed[1].NewPath != "g.h" {
		t.Errorf("paths = %q, %q", parsed[0].NewPath, parsed[1].NewPath)
	}
	if got, _ := Apply(a2, parsed[1]); got != b2 {
		t.Errorf("Apply second = %q, want %q", got, b2)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct{ name, text string }{
		{"hunk without header", "@@ -1,1 +1,1 @@\n-a\n+b\n"},
		{"truncated hunk", "--- a/f\n+++ b/f\n@@ -1,2 +1,2 @@\n-a\n"},
		{"bad hunk line", "--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n*bogus\n"},
		{"bad header numbers", "--- a/f\n+++ b/f\n@@ -x,1 +1,1 @@\n-a\n+b\n"},
		{"hunk without +++", "--- a/drivers/net/x.c\n@@ -1,1 +1,1 @@\n-a\n+b\n"},
		{"git header without ---/+++", "diff --git a/f b/f\n@@ -1,1 +1,1 @@\n-a\n+b\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParsePatch(tt.text); !errors.Is(err, ErrBadPatch) {
				t.Errorf("ParsePatch error = %v, want ErrBadPatch", err)
			}
		})
	}
}

func TestApplyContextMismatch(t *testing.T) {
	fd := mustDiff(t, "a\nb\nc\n", "a\nB\nc\n")
	if _, err := Apply("a\nX\nc\n", fd); err == nil {
		t.Error("Apply succeeded on mismatched context, want error")
	}
}

func TestChangedNewLines(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want []int
	}{
		{"modify one", "a\nb\nc\nd\ne\n", "a\nb\nX\nd\ne\n", []int{3}},
		{"add two adjacent", "a\nb\nc\n", "a\nn1\nn2\nb\nc\n", []int{2, 3}},
		{"pure removal middle", "a\nb\nc\nd\n", "a\nc\nd\n", []int{2}},
		{"pure removal at end", "a\nb\nc\n", "a\nb\n", []int{2}},
		{"removal then later add", "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n13\n14\n15\n",
			"1\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n13\nX\n14\n15\n", []int{2, 13}},
		{"whole file new", "", "a\nb\n", []int{1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fd, changed := Diff("f", "f", tt.a, tt.b)
			if !changed {
				t.Fatal("no change")
			}
			total := len(splitLines(tt.b))
			got := ChangedNewLines(fd, total)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("ChangedNewLines = %v, want %v\npatch:\n%s", got, tt.want, Format(fd))
			}
		})
	}
}

// randomLines builds content from a tiny alphabet so diffs hit many shared
// lines (the interesting case for Myers).
func randomLines(r *rand.Rand, n int) string {
	words := []string{"alpha", "beta", "gamma", "delta", "", "x = 1;", "}"}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(words[r.Intn(len(words))])
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Property: Apply(a, Diff(a,b)) == b for arbitrary line-structured content.
func TestQuickDiffApply(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		a := randomLines(r, r.Intn(40))
		b := randomLines(r, r.Intn(40))
		fd, changed := Diff("f", "f", a, b)
		if !changed {
			if a != b {
				t.Fatalf("Diff said unchanged but a != b\na=%q\nb=%q", a, b)
			}
			continue
		}
		got, err := Apply(a, fd)
		if err != nil {
			t.Fatalf("Apply: %v\na=%q\nb=%q\npatch:\n%s", err, a, b, Format(fd))
		}
		if got != b {
			t.Fatalf("round trip failed\na=%q\nb=%q\ngot=%q\npatch:\n%s", a, b, got, Format(fd))
		}
	}
}

// Property: Format/ParsePatch round-trips structurally.
func TestQuickFormatParse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := randomLines(r, r.Intn(30))
		b := randomLines(r, r.Intn(30))
		fd, changed := Diff("dir/file.c", "dir/file.c", a, b)
		if !changed {
			continue
		}
		parsed, err := ParsePatch(Format(fd))
		if err != nil {
			t.Fatalf("ParsePatch: %v", err)
		}
		if len(parsed) != 1 || !reflect.DeepEqual(parsed[0], fd) {
			t.Fatalf("round trip mismatch\norig=%+v\nparsed=%+v", fd, parsed)
		}
	}
}

// Property: splitLines/joinLines round-trip for newline-terminated content.
func TestQuickSplitJoin(t *testing.T) {
	f := func(parts []string) bool {
		for i, p := range parts {
			parts[i] = strings.ReplaceAll(p, "\n", " ")
		}
		s := joinLines(parts)
		return joinLines(splitLines(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMyersMinimalOnKnownCase(t *testing.T) {
	// Classic example: ABCABBA -> CBABAC has edit distance 5.
	a := []string{"A", "B", "C", "A", "B", "B", "A"}
	b := []string{"C", "B", "A", "B", "A", "C"}
	script := myers(a, b)
	edits := 0
	var gotA, gotB []string
	for _, e := range script {
		switch e.op {
		case ' ':
			gotA = append(gotA, e.text)
			gotB = append(gotB, e.text)
		case '-':
			edits++
			gotA = append(gotA, e.text)
		case '+':
			edits++
			gotB = append(gotB, e.text)
		}
	}
	if !reflect.DeepEqual(gotA, a) || !reflect.DeepEqual(gotB, b) {
		t.Fatalf("script does not reconstruct inputs: %v / %v", gotA, gotB)
	}
	if edits != 5 {
		t.Errorf("edit count = %d, want 5 (minimal)", edits)
	}
}
