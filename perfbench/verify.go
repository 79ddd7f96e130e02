package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"jmake"
	"jmake/internal/core"
	"jmake/internal/eval"
	"jmake/internal/sched"
	"jmake/internal/vclock"
	"jmake/internal/vcs"
)

// safetyViolation checks the verdict rule every report must satisfy: a
// certified patch had every mutation witnessed and no changed line
// escaped. It returns "" when the rule holds.
func safetyViolation(r *jmake.Report) string {
	if r == nil || !r.Certified() {
		return ""
	}
	for _, f := range r.Files {
		if f.FoundMutations != f.Mutations || len(f.EscapedLines) > 0 || len(f.Escapes) > 0 {
			return fmt.Sprintf("%s: certified but %s has %d/%d mutations witnessed, %d escaped lines",
				r.Commit, f.Path, f.FoundMutations, f.Mutations, len(f.EscapedLines))
		}
	}
	return ""
}

// reportBytes is the one serialization every comparison uses: the bytes
// `jmake -commit ID -json` and jmaked answer.
func reportBytes(r *jmake.Report) []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("marshaling report: %v", err)) // PatchReport is plain data
	}
	return append(b, '\n')
}

// relevantDiffs applies the paper's path filter to a commit's diff, as
// every check path does.
func relevantDiffs(repo *vcs.Repo, id string) (kept []jmake.FileDiff, err error) {
	fds, err := repo.FileDiffs(id)
	if err != nil {
		return nil, err
	}
	for _, fd := range fds {
		if eval.RelevantPath(fd.NewPath) {
			kept = append(kept, fd)
		}
	}
	return kept, nil
}

// freshReport checks id from scratch: a new session over the commit's own
// checkout, no result cache, one goroutine. It is the comparator every
// sampled report must match byte for byte.
func freshReport(repo *vcs.Repo, id string, model *vclock.Model) ([]byte, error) {
	tree, err := repo.CheckoutTree(id)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(tree)
	if err != nil {
		return nil, err
	}
	sess.SetResultCache(nil)
	kept, err := relevantDiffs(repo, id)
	if err != nil {
		return nil, err
	}
	r, err := sess.Checker(tree, model, core.Options{}).CheckPatch(id, kept)
	if err != nil {
		return nil, err
	}
	return reportBytes(r), nil
}

// commitModel is the virtual-time model one-shot checks, jmaked and the
// follower use: seeded by the commit ID's length.
func commitModel(id string) *vclock.Model { return vclock.DefaultModel(uint64(len(id))) }

// sampleIndices picks k distinct indices of [0, n) with a seeded RNG.
func sampleIndices(seed int64, n, k int) []int {
	if k >= n {
		k = n
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:k]
}

// compareAll runs cmp for each of n picked reports on the verify workers
// (outside the timed section) and records every failure it describes.
func compareAll(o *outcome, e *env, n int, cmp func(k int) string) {
	fails, _ := sched.Collect(n, sched.Options{Workers: e.p.verifyWorkers}, cmp)
	for _, f := range fails {
		if f != "" {
			o.fail("byte-identity: %s", f)
		}
	}
}

// passBytes serializes one pass's reports (nil where an operation made
// none), so later passes can be compared with the first.
func passBytes(reps []*jmake.Report) [][]byte {
	out := make([][]byte, len(reps))
	for i, r := range reps {
		if r != nil {
			out[i] = reportBytes(r)
		}
	}
	return out
}

// sameAsFirst fails every report of a later pass that differs from the
// first pass's report of the same operation: passes repeat the same
// operations from the same state, so their answers must repeat too.
func sameAsFirst(o *outcome, ids []string, first [][]byte, reps []*jmake.Report) {
	for i, r := range reps {
		if r == nil && first[i] == nil {
			continue
		}
		if r == nil || first[i] == nil || !bytes.Equal(reportBytes(r), first[i]) {
			o.fail("%s: report differs between passes", ids[i])
		}
	}
}

// compareFresh byte-compares got against a fresh check of id and returns
// a failure description, or "".
func compareFresh(repo *vcs.Repo, id string, model *vclock.Model, got []byte) string {
	want, err := freshReport(repo, id, model)
	if err != nil {
		return fmt.Sprintf("%s: fresh check failed: %v", id, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("%s: report differs from a fresh check (%d vs %d bytes)", id, len(got), len(want))
	}
	return ""
}
