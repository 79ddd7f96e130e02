package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"jmake/internal/kbuild"
	"jmake/internal/vclock"
)

// finalizeChecker builds a checker with a controllable runState so the
// finalize precedence can be tested in isolation.
func finalizeChecker(t *testing.T, exhausted bool) *Checker {
	t.Helper()
	ch, err := NewChecker(fixtureTree(), vclock.DefaultModel(1), Options{})
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	ch.run = newRunState(ch.opts, "finalize-test")
	ch.run.exhausted = exhausted
	return ch
}

func TestFinalizePrecedence(t *testing.T) {
	covered := func(file string) *mutEntry {
		return &mutEntry{mut: Mutation{ID: `@"other:` + file + `:1"`, CoversLines: []int{1}}, file: file, covered: true}
	}
	pending := func(file string) *mutEntry {
		return &mutEntry{mut: Mutation{ID: `@"other:` + file + `:2"`, CoversLines: []int{2}}, file: file}
	}
	// Escape classification reads the line analysis Mutate made.
	netdrv, err := fixtureTree().Read("drivers/net/netdrv.c")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		exhausted bool
		fs        *fileState
		want      Status
	}{
		{
			// Certification requires all mutations witnessed + a compile;
			// it then beats every other condition, including exhaustion.
			name: "certified beats exhaustion", exhausted: true,
			fs:   &fileState{path: "a.c", kind: CFile, muts: []*mutEntry{covered("a.c")}, compiledOK: true},
			want: StatusCertified,
		},
		{
			name: "header certified without compile", exhausted: false,
			fs:   &fileState{path: "a.h", kind: HFile, muts: []*mutEntry{covered("a.h")}},
			want: StatusCertified,
		},
		{
			// With work left and the budget gone, exhaustion beats both the
			// escapes and build-failed verdicts.
			name: "exhaustion beats escapes", exhausted: true,
			fs: &fileState{path: "a.c", kind: CFile,
				muts: []*mutEntry{covered("a.c"), pending("a.c")}, compiledOK: true},
			want: StatusBudgetExhausted,
		},
		{
			name: "exhaustion beats build-failed", exhausted: true,
			fs: &fileState{path: "a.c", kind: CFile, muts: []*mutEntry{pending("a.c")},
				lastErr: errors.New("compile error")},
			want: StatusBudgetExhausted,
		},
		{
			name: "escapes when compiled with pending", exhausted: false,
			fs: &fileState{path: "drivers/net/netdrv.c", kind: CFile, res: Mutate("drivers/net/netdrv.c", netdrv, []int{1, 2}),
				muts: []*mutEntry{covered("drivers/net/netdrv.c"), pending("drivers/net/netdrv.c")}, compiledOK: true},
			want: StatusEscapes,
		},
		{
			name: "build failed without error detail", exhausted: false,
			fs:   &fileState{path: "a.c", kind: CFile, muts: []*mutEntry{pending("a.c")}},
			want: StatusBuildFailed,
		},
		{
			name: "unsupported arch from broken toolchain", exhausted: false,
			fs: &fileState{path: "a.c", kind: CFile, muts: []*mutEntry{pending("a.c")},
				lastErr: fmt.Errorf("%w: mips", kbuild.ErrBrokenArch)},
			want: StatusUnsupportedArch,
		},
		{
			name: "no makefile", exhausted: false,
			fs: &fileState{path: "a.c", kind: CFile, muts: []*mutEntry{pending("a.c")},
				lastErr: fmt.Errorf("%w: drivers/x", kbuild.ErrNoMakefile)},
			want: StatusNoMakefile,
		},
		{
			// Quarantine wins over the broken-arch mapping even though the
			// wrapped error chain could match either sentinel.
			name: "quarantined arch", exhausted: false,
			fs: &fileState{path: "a.c", kind: CFile, muts: []*mutEntry{pending("a.c")},
				lastErr: fmt.Errorf("%w: x86_64", errArchQuarantined)},
			want: StatusArchQuarantined,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := finalizeChecker(t, tc.exhausted)
			tc.fs.state = &FileOutcome{Path: tc.fs.path, Kind: tc.fs.kind, Mutations: len(tc.fs.muts)}
			ch.finalize(&PatchReport{}, tc.fs)
			if got := tc.fs.state.Status; got != tc.want {
				t.Errorf("status = %v, want %v (outcome %+v)", got, tc.want, tc.fs.state)
			}
		})
	}
}

// TestFinalizeBudgetNeverCertifies drives finalize through real fault
// plans at a range of budgets: whatever the plan does, a certified file
// always has all mutations found, and an exhausted run never reports
// escapes or build failures for incomplete files.
func TestFinalizeBudgetLadder(t *testing.T) {
	for _, budget := range []time.Duration{
		time.Millisecond, time.Second, 10 * time.Second, 30 * time.Second, 0,
	} {
		tr, fds := chaosEdits(t)
		r := chaosRun(t, tr, fds, Options{Budget: budget})
		for _, f := range r.Files {
			switch f.Status {
			case StatusCertified:
				if f.FoundMutations != f.Mutations {
					t.Errorf("budget %v: %s certified incomplete", budget, f.Path)
				}
			case StatusEscapes, StatusBuildFailed:
				if r.BudgetExhausted {
					t.Errorf("budget %v: %s reported %v on an exhausted run", budget, f.Path, f.Status)
				}
			}
		}
		if budget == 0 && !r.Certified() {
			t.Errorf("unlimited budget should certify the fixture patch: %+v", r.Files)
		}
	}
}

// TestMarkErrOnlyBlamesRelevantFiles: a builder-creation failure for one
// architecture must not smear error state onto files that architecture
// would never compile (the satellite fix for markErr).
func TestMarkErrOnlyBlamesRelevantFiles(t *testing.T) {
	armFile := &fileState{path: "arch/arm/kernel/entry.c", kind: CFile}
	hostFile := &fileState{path: "drivers/net/netdrv.c", kind: CFile}
	files := []*fileState{armFile, hostFile}

	err := fmt.Errorf("%w: arm", kbuild.ErrBrokenArch)
	// What processCFiles now does for an arm builder failure:
	markErr(relevantFiles(files, "arm"), err)

	if armFile.lastErr == nil {
		t.Error("arm file should carry the arm builder error")
	}
	if hostFile.lastErr == nil {
		t.Error("non-arch files are relevant to every architecture, including arm")
	}

	// And for an x86_64 builder failure, the arm-specific file is spared.
	armFile2 := &fileState{path: "arch/arm/kernel/entry.c", kind: CFile}
	host2 := &fileState{path: "drivers/net/netdrv.c", kind: CFile}
	markErr(relevantFiles([]*fileState{armFile2, host2}, "x86_64"), err)
	if armFile2.lastErr != nil {
		t.Error("arch/arm file blamed for an x86_64 builder failure")
	}
	if host2.lastErr == nil {
		t.Error("host-relevant file should carry the error")
	}
}
