package textdiff

import (
	"reflect"
	"strings"
	"testing"

	"jmake/internal/kernelgen"
)

// FuzzParsePatch feeds arbitrary text to the patch parser, the one input a
// janitor supplies directly (jmake -patch). ParsePatch, Apply and
// ChangedNewLines must never panic, and every file diff with hunks must
// name both paths. The second input, split at its first NUL into old and
// new contents, must round-trip: ParsePatch(Format(Diff(p, p, old, new)))
// is that diff, and applying it to old gives new.
func FuzzParsePatch(f *testing.F) {
	for _, s := range patchSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, text, contents string) {
		fds, _ := ParsePatch(text)
		for _, fd := range fds {
			if len(fd.Hunks) > 0 && (fd.OldPath == "" || fd.NewPath == "") {
				t.Fatalf("diff with %d hunks lacks a path: old %q new %q", len(fd.Hunks), fd.OldPath, fd.NewPath)
			}
			_, _ = Apply(contents, fd)
			_ = ChangedNewLines(fd, strings.Count(contents, "\n"))
		}

		before, after, _ := strings.Cut(contents, "\x00")
		before, after = terminated(before), terminated(after)
		const p = "drivers/net/x.c"
		fd, changed := Diff(p, p, before, after)
		if !changed {
			return
		}
		parsed, err := ParsePatch(Format(fd))
		if err != nil {
			t.Fatalf("ParsePatch(Format(diff)): %v", err)
		}
		if len(parsed) != 1 || !reflect.DeepEqual(parsed[0], fd) {
			t.Fatalf("round trip mismatch\ndiff:   %+v\nparsed: %+v", fd, parsed)
		}
		got, err := Apply(before, parsed[0])
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if got != after {
			t.Fatalf("Apply gave %q, want %q", got, after)
		}
	})
}

// terminated gives non-empty content a final newline, the form a line
// diff preserves.
func terminated(s string) string {
	if s != "" && !strings.HasSuffix(s, "\n") {
		return s + "\n"
	}
	return s
}

// patchSeeds are hand-written malformed patches plus diffs between
// kernelgen files, each with the pair of contents it was made from.
func patchSeeds(f *testing.F) [][2]string {
	seeds := [][2]string{
		{"--- a/drivers/net/x.c\n@@ -1,1 +1,1 @@\n-a\n+b\n", "a\n\x00b\n"},
		{"diff --git a/f b/f\n@@ -1,1 +1,1 @@\n-a\n+b\n", "a\n"},
		{"--- a/f\n+++ b/f\n@@ -1,2 +1,2 @@\n-a\n", "a\nb\n"},
		{"--- a/f\n+++ b/f\n@@ -0,0 +1,2 @@\n+x\n+y\n\\ No newline at end of file\n", ""},
		{"--- /dev/null\n+++ b/new.c\n@@ -0,0 +1 @@\n+int x;\n", "\x00int x;\n"},
		{"--- a/f\n+++ b/f\n@@ -3,1 +3,0 @@\n-c\n@@ -1,1 +1,1 @@\n a\n", "a\nb\nc\n"},
		{"+++ b/f\n--- a/f\n", ""},
		{"--- a/f\n+++ b/f\n@@ -1,-1 +1,1 @@\n+z\n", "a\n"},
		{"@@ -1 +1 @@\n-a\n+b\n", "a\r\nb\r\n\x00a\r\nc\r\n"},
	}
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 7, Scale: 0.05})
	if err != nil {
		f.Fatal(err)
	}
	var prev string
	for _, p := range tr.Paths() {
		if !strings.HasSuffix(p, ".c") {
			continue
		}
		content, _ := tr.Read(p)
		if prev != "" {
			if fd, ok := Diff(p, p, prev, content); ok {
				seeds = append(seeds, [2]string{Format(fd), prev + "\x00" + content})
			}
		}
		prev = content
		if len(seeds) >= 14 {
			break
		}
	}
	return seeds
}
