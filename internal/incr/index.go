// Package incr implements the incremental commit-stream follower: a
// long-lived session that consumes commits one at a time and re-checks
// each with cost proportional to the diff, not the tree.
//
// The dependability contract is absolute: every report a follower emits
// is byte-identical to what a from-scratch `jmake -commit ID -json` run
// produces for the same commit. Warmth only changes the session's
// *effective* cost (measured in saved-virtual-time ledgers), never a
// report byte. The pieces:
//
//   - Index (this file): a reverse dependency index — header → dependent
//     translation units — built from a static include scan and enriched
//     with the result cache's include-closure manifests, plus Kbuild-gate
//     and Kconfig edges. It prices each commit's blast radius.
//   - Follower (incr.go): walks history in order, one commit at a time.
//     Step, Run and jmaked's /follow share one plan (the commits to apply
//     after the cursor, and the requested ones among them, which must
//     strictly increase in history) and one per-commit routine: apply the
//     commit to a live working tree, price its blast radius, update the
//     index, invalidate exactly the session state its paths could affect
//     (core.Session.Refresh), and re-check it with warm state, measuring
//     its effective cost.
//   - RunReactive (reactive.go): the benchmark harness replaying an
//     N-commit stream and reporting per-commit virtual vs effective cost.
package incr

import (
	"sort"
	"strings"

	"jmake/internal/ccache"
	"jmake/internal/fstree"
	"jmake/internal/presence"
)

// Index is the reverse dependency index over one working tree. Edges are
// kept by include *target* (the literal `#include` operand), not resolved
// path: target→path resolution depends on per-arch search orders, so the
// index matches targets against changed header paths at query time by
// suffix — a condition- and arch-blind over-approximation, exactly the
// discipline the presence analysis uses.
//
// Index is not safe for concurrent mutation; the follower updates it
// between checks, never during one.
type Index struct {
	// fwd[file] lists the file's include targets (deduplicated, sorted).
	fwd map[string][]string
	// rev[target] is the set of files whose #include list names target.
	rev map[string]map[string]bool
}

// NewIndex scans every .c/.h file of tree once and builds the static
// include-edge index.
func NewIndex(tree *fstree.Tree) *Index {
	ix := &Index{
		fwd: make(map[string][]string),
		rev: make(map[string]map[string]bool),
	}
	for _, p := range tree.Paths() {
		if sourceLike(p) {
			ix.scan(tree, p)
		}
	}
	return ix
}

func sourceLike(p string) bool {
	return strings.HasSuffix(p, ".c") || strings.HasSuffix(p, ".h")
}

// scan (re)computes one file's forward edges from its current content.
func (ix *Index) scan(tree *fstree.Tree, p string) {
	ix.drop(p)
	content, err := tree.Read(p)
	if err != nil {
		return
	}
	seen := make(map[string]bool)
	var targets []string
	for _, inc := range presence.Includes(content) {
		t := fstree.Clean(inc.Target)
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		targets = append(targets, t)
	}
	sort.Strings(targets)
	ix.fwd[p] = targets
	for _, t := range targets {
		set := ix.rev[t]
		if set == nil {
			set = make(map[string]bool)
			ix.rev[t] = set
		}
		set[p] = true
	}
}

// drop removes one file's forward edges and their reverse entries.
func (ix *Index) drop(p string) {
	for _, t := range ix.fwd[p] {
		if set := ix.rev[t]; set != nil {
			delete(set, p)
			if len(set) == 0 {
				delete(ix.rev, t)
			}
		}
	}
	delete(ix.fwd, p)
}

// Update advances the index past one commit: every changed source file is
// re-scanned against the already-advanced tree (deleted files drop their
// edges). Non-source paths need no edge maintenance — their effects are
// handled as Kbuild/Kconfig edges at query time.
func (ix *Index) Update(tree *fstree.Tree, changed []string) {
	for _, p := range changed {
		p = fstree.Clean(p)
		if !sourceLike(p) {
			continue
		}
		if tree.Exists(p) {
			ix.scan(tree, p)
		} else {
			ix.drop(p)
		}
	}
}

// matchesTarget reports whether header path h could be what an
// `#include <target>` / `#include "target"` resolves to: the path equals
// the target or ends with /target (covering every search-dir prefix and
// the quoted same-directory rule at once).
func matchesTarget(h, target string) bool {
	return h == target || strings.HasSuffix(h, "/"+target)
}

// Dependents returns the translation units (.c paths) whose transitive
// inputs include any of the changed paths, sorted. Three edge classes
// contribute:
//
//   - include edges: reverse-BFS from each changed header through the
//     static target index (headers reached transitively keep expanding
//     the frontier, .c files terminate it);
//   - manifest edges: the result cache's include-closure manifests name
//     the exact root TUs that observed a header during real compiles —
//     these catch computed includes the static scan cannot see;
//   - Kbuild-gate edges: a changed Makefile/Kbuild pulls in every TU in
//     its directory subtree.
//
// Kconfig / Kbuild.meta / arch-wide changes invalidate globally; callers
// detect those with core.Structural rather than enumerating the whole tree.
// A changed .c file is its own dependent.
func (ix *Index) Dependents(tree *fstree.Tree, cache *ccache.Cache, changed []string) []string {
	tus := make(map[string]bool)
	visited := make(map[string]bool)
	var frontier []string

	for _, p := range changed {
		p = fstree.Clean(p)
		base := p[strings.LastIndexByte(p, '/')+1:]
		switch {
		case strings.HasSuffix(p, ".c"):
			tus[p] = true
		case strings.HasSuffix(p, ".h"):
			frontier = append(frontier, p)
		case base == "Makefile" || base == "Kbuild":
			dir := ""
			if i := strings.LastIndexByte(p, '/'); i >= 0 {
				dir = p[:i]
			}
			for _, q := range tree.Under(dir) {
				if strings.HasSuffix(q, ".c") {
					tus[q] = true
				}
			}
		}
	}

	// Static include edges, transitively.
	for len(frontier) > 0 {
		h := frontier[0]
		frontier = frontier[1:]
		if visited[h] {
			continue
		}
		visited[h] = true
		for target, includers := range ix.rev {
			if !matchesTarget(h, target) {
				continue
			}
			for f := range includers {
				if strings.HasSuffix(f, ".c") {
					tus[f] = true
				} else if !visited[f] {
					frontier = append(frontier, f)
				}
			}
		}
	}

	// Manifest edges: exact observed closures from real compiles. The
	// scan answers only for the headers reached above, so it is skipped
	// when there are none.
	if cache != nil && len(visited) > 0 {
		hdrs := make([]string, 0, len(visited))
		for h := range visited {
			hdrs = append(hdrs, h)
		}
		for _, roots := range cache.Dependents(hdrs) {
			for _, r := range roots {
				tus[r] = true
			}
		}
	}

	out := make([]string, 0, len(tus))
	for p := range tus {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
