package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"jmake/internal/csrc"
	"jmake/internal/textdiff"
	"jmake/internal/vclock"
)

// Property: mutation never reorders or alters the original code lines —
// stripping the inserted mutation lines and the appended mutation suffixes
// recovers the original content exactly.
func TestQuickMutatePreservesCode(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fragments := []string{
		"int a;",
		"#define M(x) ((x) + 1)",
		"#define LONG(x) \\",
		"\t((x) + 2)",
		"/* a comment */",
		"#ifdef CONFIG_FOO",
		"#endif",
		"int f(void) { return 0; }",
		"",
	}
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(15)
		var lines []string
		depth := 0
		for i := 0; i < n; i++ {
			frag := fragments[rng.Intn(len(fragments))]
			if frag == "#ifdef CONFIG_FOO" {
				depth++
			}
			if frag == "#endif" {
				if depth == 0 {
					continue
				}
				depth--
			}
			lines = append(lines, frag)
		}
		for depth > 0 {
			lines = append(lines, "#endif")
			depth--
		}
		content := strings.Join(lines, "\n") + "\n"
		var changed []int
		for i := 1; i <= len(lines); i++ {
			if rng.Intn(3) == 0 {
				changed = append(changed, i)
			}
		}
		if len(changed) == 0 {
			changed = []int{1}
		}
		res := Mutate("f.c", content, changed)

		stripped := stripMutations(res.Content)
		if stripped != content {
			t.Fatalf("mutation altered code:\noriginal:\n%s\nmutated:\n%s\nstripped:\n%s",
				content, res.Content, stripped)
		}
		if len(res.Mutations) > len(changed) {
			t.Fatalf("more mutations (%d) than changed lines (%d)", len(res.Mutations), len(changed))
		}
	}
}

// stripMutations removes inserted mutation lines and appended tokens.
func stripMutations(content string) string {
	var out []string
	for _, ln := range strings.Split(strings.TrimSuffix(content, "\n"), "\n") {
		trimmed := strings.TrimSpace(ln)
		if strings.HasPrefix(trimmed, MutationMarker+`"`) {
			continue // pure mutation line (possibly with trailing backslash)
		}
		if i := strings.Index(ln, " "+MutationMarker+`"`); i >= 0 {
			//

			// Appended to a #define line: drop the token, restoring any
			// trailing continuation backslash.
			rest := ln[i:]
			ln = ln[:i]
			if strings.HasSuffix(strings.TrimRight(rest, " \t"), "\\") {
				ln += " \\"
			}
		}
		out = append(out, ln)
	}
	return strings.Join(out, "\n") + "\n"
}

// Property: every mutation ID embeds its file and line and is unique.
func TestQuickMutationIDs(t *testing.T) {
	f := func(rawLines []uint8) bool {
		content := "int a;\nint b;\nint c;\nint d;\nint e;\n"
		seen := map[int]bool{}
		var changed []int
		for _, r := range rawLines {
			n := int(r)%5 + 1
			if !seen[n] {
				seen[n] = true
				changed = append(changed, n)
			}
		}
		if len(changed) == 0 {
			return true
		}
		res := Mutate("dir/f.c", content, changed)
		ids := map[string]bool{}
		for _, m := range res.Mutations {
			if ids[m.ID] {
				return false
			}
			ids[m.ID] = true
			if !strings.Contains(m.ID, "dir/f.c") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The group-size option must split .i invocations (paper: max 50 files per
// make to bound tmpfs usage).
func TestCheckerGroupSizeOption(t *testing.T) {
	tr := fixtureTree()
	old1, _ := tr.Read("drivers/net/netdrv.c")
	fd1 := applyEdit(t, tr, "drivers/net/netdrv.c", strings.Replace(old1, "0x40", "0x41", 1))
	old2, _ := tr.Read("drivers/net/moddrv.c")
	fd2 := applyEdit(t, tr, "drivers/net/moddrv.c", strings.Replace(old2, "return 0", "return 3", 1))

	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{MaxGroupSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ch.CheckPatch("group", []textdiff.FileDiff{fd1, fd2})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Certified() {
		t.Fatalf("not certified: %+v", report.Files)
	}
	if len(report.MakeIDurations) != 2 {
		t.Errorf("MakeI invocations = %d, want 2 with group size 1", len(report.MakeIDurations))
	}
}

// With a tiny HCandidateLimit, header hunting must restrict itself to
// allyesconfig (paper §III-E's user-configurable threshold).
func TestHeaderCandidateLimit(t *testing.T) {
	tr := fixtureTree()
	oldH, _ := tr.Read("include/linux/netdev.h")
	fdH := applyEdit(t, tr, "include/linux/netdev.h", strings.Replace(oldH, "<< 4", "<< 7", 1))

	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{HCandidateLimit: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Limit 0 takes the default; use an explicit tiny limit instead.
	ch.opts.HCandidateLimit = 1
	report, err := ch.CheckPatch("hlimit", []textdiff.FileDiff{fdH})
	if err != nil {
		t.Fatal(err)
	}
	h := findFile(t, report, "include/linux/netdev.h")
	if h.Status != StatusCertified {
		t.Fatalf("header not certified: %+v", h)
	}
	if h.UsedDefconfig {
		t.Error("above the candidate limit only allyesconfig may be used")
	}
}

// A patch deleting lines (pure removal) still gets checked: the first
// remaining line is certified (paper §III-B).
func TestCheckPureRemoval(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	edited := strings.Replace(old, "\tdrv_read(v);\n", "", 1)
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", edited)
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/netdrv.c")
	if f.Status != StatusCertified {
		t.Errorf("pure removal: %+v", f)
	}
	if f.Mutations != 1 {
		t.Errorf("Mutations = %d, want 1", f.Mutations)
	}
}

// A file whose Makefile is missing gets the dedicated status.
func TestCheckNoMakefile(t *testing.T) {
	tr := fixtureTree()
	tr.Write("orphan/lost.c", "int lost;\n")
	fd := applyEdit(t, tr, "orphan/lost.c", "int lost = 1;\n")
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "orphan/lost.c")
	if f.Status != StatusNoMakefile && f.Status != StatusBuildFailed {
		t.Errorf("status = %v, want no-makefile or build-failed", f.Status)
	}
	if report.Certified() {
		t.Error("orphan file cannot be certified")
	}
}

// A change that deletes the whole file content except one line still works.
func TestCheckHeavyRewrite(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/moddrv.c")
	edited := "#include <linux/kernel.h>\n\nint moddrv_probe(void)\n{\n\tprintk(\"rewritten\");\n\treturn 7;\n}\n"
	if edited == old {
		t.Fatal("contents identical")
	}
	fd := applyEdit(t, tr, "drivers/net/moddrv.c", edited)
	report := checkOne(t, tr, fd)
	f := findFile(t, report, "drivers/net/moddrv.c")
	if f.Status != StatusCertified {
		t.Errorf("rewrite: %+v (%s)", f, f.FailureDetail)
	}
}

// Verify csrc and Mutate agree on macro continuation chains ending at EOF.
func TestMutateMacroAtEOF(t *testing.T) {
	content := "#define TAIL(x) \\\n\t((x) + 1)"
	res := Mutate("f.c", content, []int{2})
	if len(res.Mutations) != 1 || res.Mutations[0].Kind != "define" {
		t.Fatalf("mutations = %+v", res.Mutations)
	}
	f := csrc.Analyze(res.Content)
	if len(f.Lines) != 3 {
		t.Fatalf("mutated content has %d lines:\n%s", len(f.Lines), res.Content)
	}
}

// The report's duration lists must sum to Total.
func TestReportTotalsConsistent(t *testing.T) {
	tr := fixtureTree()
	old, _ := tr.Read("drivers/net/netdrv.c")
	fd := applyEdit(t, tr, "drivers/net/netdrv.c", strings.Replace(old, "0x40", "0x42", 1))
	report := checkOne(t, tr, fd)
	var sum = report.Total - report.Total
	for _, d := range report.ConfigDurations {
		sum += d
	}
	for _, d := range report.MakeIDurations {
		sum += d
	}
	for _, d := range report.MakeODurations {
		sum += d
	}
	if sum != report.Total {
		t.Errorf("durations sum %v != Total %v", sum, report.Total)
	}
}
