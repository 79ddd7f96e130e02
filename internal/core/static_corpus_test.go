package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/textdiff"
	"jmake/internal/vclock"
)

// corpusTree loads examples/presence/src — the golden corpus shared with
// jmake-lint and the presence package — into an in-memory tree.
func corpusTree(t *testing.T) *fstree.Tree {
	t.Helper()
	root := filepath.Join("..", "..", "examples", "presence", "src")
	tr := fstree.New()
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		content, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		rel, rerr := filepath.Rel(root, p)
		if rerr != nil {
			return rerr
		}
		tr.Write(filepath.ToSlash(rel), string(content))
		return nil
	})
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	return tr
}

// The acceptance run over the golden corpus: a patch touching only
// provably-dead regions issues ZERO compiler invocations.
func TestCorpusDeadOnlyPatchCompilesNothing(t *testing.T) {
	tr := corpusTree(t)
	old, _ := tr.Read("drivers/ifzero.c")
	edited := strings.Replace(old, "int never_compiled;", "int never_compiled2;", 1)
	edited = strings.Replace(edited, "int contradiction;", "int contradiction2;", 1)
	fd := applyEdit(t, tr, "drivers/ifzero.c", edited)
	report := checkStatic(t, tr, fd)

	f := findFile(t, report, "drivers/ifzero.c")
	if f.Status != StatusStaticDead {
		t.Fatalf("status = %v: %+v", f.Status, f)
	}
	if len(report.ConfigDurations)+len(report.MakeIDurations)+len(report.MakeODurations) != 0 {
		t.Errorf("dead-only corpus patch still built: %d/%d/%d",
			len(report.ConfigDurations), len(report.MakeIDurations), len(report.MakeODurations))
	}
	if report.StaticSkippedMakeI != 1 || report.StaticSkippedMakeO != 1 {
		t.Errorf("skip counters = %d/%d", report.StaticSkippedMakeI, report.StaticSkippedMakeO)
	}
}

// The full corpus patch: every file's changed lines land where the design
// intends (covered, escaped, or statically dead), and the static
// predictions never disagree with a .i witness.
func TestCorpusFullPatchPredictionsAgree(t *testing.T) {
	tr := corpusTree(t)
	edit := func(path, from, to string) textdiff.FileDiff {
		old, err := tr.Read(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return applyEdit(t, tr, path, strings.Replace(old, from, to, 1))
	}
	fds := []textdiff.FileDiff{
		edit("drivers/nested.c", "int foo_and_bar;", "int foo_and_bar2;"),
		edit("drivers/elif.c", "int second;", "int second2;"),
		edit("drivers/elsecase.c", "int without_foo;", "int without_foo2;"),
		edit("drivers/gated.c", "int only_as_module;", "int only_as_module2;"),
		edit("drivers/ifzero.c", "int contradiction;", "int contradiction2;"),
	}
	ch, err := NewChecker(tr, vclock.DefaultModel(1), Options{StaticPresence: true})
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	report, err := ch.CheckPatch("corpus", fds)
	if err != nil {
		t.Fatalf("CheckPatch: %v", err)
	}

	if len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("static/dynamic disagreements on the corpus: %+v",
			report.StaticDynamicDisagreements)
	}
	want := map[string]Status{
		"drivers/nested.c":   StatusCertified, // FOO && BAR: visible under allyes
		"drivers/elif.c":     StatusEscapes,   // !FOO && BAR: live, but allyes takes branch 1
		"drivers/elsecase.c": StatusEscapes,   // !FOO: live, allyes sets FOO
		"drivers/gated.c":    StatusEscapes,   // MODULE: live as module, invisible builtin
		"drivers/ifzero.c":   StatusStaticDead,
	}
	for path, ws := range want {
		f := findFile(t, report, path)
		if f.Status != ws {
			t.Errorf("%s: status = %v, want %v (%+v)", path, f.Status, ws, f)
		}
	}
	if report.StaticSkippedMakeI != 1 || report.StaticSkippedMakeO != 1 {
		t.Errorf("only ifzero.c should be pruned whole: %d/%d",
			report.StaticSkippedMakeI, report.StaticSkippedMakeO)
	}
}

// The elif chain's dependency-dead branch: BAZ depends on BAR, but the
// third branch requires !BAR, so a change there is statically dead even
// though its #if stack alone is satisfiable. The remaining live line keeps
// the file building.
func TestCorpusElifDependencyDeadBranch(t *testing.T) {
	tr := corpusTree(t)
	old, _ := tr.Read("drivers/elif.c")
	edited := strings.Replace(old, "int third;", "int third2;", 1)
	edited = strings.Replace(edited, "int first;", "int first2;", 1)
	fd := applyEdit(t, tr, "drivers/elif.c", edited)
	report := checkStatic(t, tr, fd)

	f := findFile(t, report, "drivers/elif.c")
	if f.Status != StatusStaticDead {
		t.Fatalf("status = %v, want static-dead remainder: %+v", f.Status, f)
	}
	if len(f.CoveredLines) != 1 {
		t.Errorf("CoveredLines = %v, want the live first-branch line", f.CoveredLines)
	}
	if len(f.StaticDeadLines) != 1 {
		t.Errorf("StaticDeadLines = %v, want the dependency-dead third-branch line", f.StaticDeadLines)
	}
	if len(report.StaticDynamicDisagreements) != 0 {
		t.Errorf("disagreements = %+v", report.StaticDynamicDisagreements)
	}
}
