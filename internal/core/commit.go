package core

import (
	"strings"

	"jmake/internal/fstree"
	"jmake/internal/textdiff"
	"jmake/internal/trace"
	"jmake/internal/vclock"
	"jmake/internal/vcs"
)

// RelevantPath implements the paper's path filter: only .c and .h files
// outside Documentation, scripts and tools are considered (§V-A).
func RelevantPath(p string) bool {
	if strings.HasPrefix(p, "Documentation/") ||
		strings.HasPrefix(p, "scripts/") ||
		strings.HasPrefix(p, "tools/") {
		return false
	}
	return strings.HasSuffix(p, ".c") || strings.HasSuffix(p, ".h")
}

// RelevantDiffs returns, in order, the file diffs whose new path passes
// RelevantPath, in a new slice.
func RelevantDiffs(fds []textdiff.FileDiff) []textdiff.FileDiff {
	kept := fds[:0:0]
	for _, fd := range fds {
		if RelevantPath(fd.NewPath) {
			kept = append(kept, fd)
		}
	}
	return kept
}

// CheckCommit is the one commit check that `jmake -commit`, jmaked and
// the follower all run: commit id's file diffs, kept by RelevantDiffs,
// checked over tree (the snapshot after the commit) with the default
// model seeded by the ID's length, so the report depends only on the
// commit. When traced it also returns the patch's span tree (nil
// otherwise); tracing never changes the report. files counts the kept
// diffs.
func (s *Session) CheckCommit(repo *vcs.Repo, tree *fstree.Tree, id string, opts Options, traced bool) (report *PatchReport, span *trace.Span, files int, err error) {
	fds, err := repo.FileDiffs(id)
	if err != nil {
		return nil, nil, 0, err
	}
	kept := RelevantDiffs(fds)
	model := vclock.DefaultModel(uint64(len(id)))
	checker := s.Checker(tree, model, opts)
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(trace.KindPatch, model.NewClock(), trace.A("commit", id))
		checker.SetTrace(rec)
	}
	report, err = checker.CheckPatch(id, kept)
	if err != nil {
		return nil, nil, len(kept), err
	}
	return report, rec.Finish(), len(kept), nil
}
