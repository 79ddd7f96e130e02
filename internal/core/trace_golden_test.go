package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jmake/internal/textdiff"
	"jmake/internal/trace"
	"jmake/internal/vclock"
)

// The golden trace for the presence corpus's full patch: pins the exact
// span tree — kinds, virtual times, attributes, cache outcomes — that
// checking examples/presence/src produces, so any drift in span taxonomy
// or clock charging shows up as a readable text diff. Regenerate after an
// intentional change with UPDATE_GOLDEN=1.
func TestCorpusGoldenTrace(t *testing.T) {
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
	model := vclock.DefaultModel(1)
	ch, err := NewChecker(tr, model, Options{StaticPresence: true})
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	rec := trace.NewRecorder(trace.KindPatch, model.NewClock(), trace.A("commit", "corpus"))
	ch.SetTrace(rec)
	report, err := ch.CheckPatch("corpus", fds)
	if err != nil {
		t.Fatalf("CheckPatch: %v", err)
	}

	session := &trace.Trace{Spans: []*trace.Span{rec.Finish()}}
	session.Stamp()

	// Cross-check before pinning: the span extent is the report total, and
	// the Chrome rendering of the same trace is structurally valid.
	if got := session.Spans[0].Dur(); got != report.Total {
		t.Fatalf("span extent %v != report total %v", got, report.Total)
	}
	if err := trace.ValidateChrome(session.Chrome(2)); err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}

	got := session.Tree()
	path := filepath.Join("testdata", "corpus_trace.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("corpus trace drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
