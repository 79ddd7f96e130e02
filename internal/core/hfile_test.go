package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/kernelgen"
)

// scanHeaderCandidates is the header hunt as a plain scan: it reads every
// .c file of the tree and tests it with strings.Contains. It is the
// reference findHeaderCandidates must match.
func scanHeaderCandidates(tree *fstree.Tree, hPath string, hints []string) []candidate {
	relInclude := strings.TrimPrefix(hPath, "include/")
	base := hPath[strings.LastIndexByte(hPath, '/')+1:]
	hArch := ""
	if strings.HasPrefix(hPath, "arch/") {
		rest := strings.TrimPrefix(hPath, "arch/")
		if i := strings.IndexByte(rest, '/'); i > 0 {
			hArch = rest[:i]
		}
	}

	var out []candidate
	for _, p := range tree.Paths() {
		if !strings.HasSuffix(p, ".c") {
			continue
		}
		if hArch != "" && strings.HasPrefix(p, "arch/") && !strings.HasPrefix(p, "arch/"+hArch+"/") {
			continue
		}
		content, err := tree.Read(p)
		if err != nil {
			continue
		}
		cand := candidate{path: p}
		if strings.Contains(content, "<"+relInclude+">") || strings.Contains(content, "\""+base+"\"") {
			cand.includes = true
		}
		if len(hints) > 0 {
			cand.allHints = true
			for _, h := range hints {
				if strings.Contains(content, h) {
					cand.anyHint = true
				} else {
					cand.allHints = false
				}
			}
		}
		if cand.includes || cand.anyHint {
			out = append(out, cand)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return candRank(out[i]) < candRank(out[j])
	})
	return out
}

// definedNames returns the names a header #defines, in file order.
func definedNames(content string) []string {
	var names []string
	for _, line := range strings.Split(content, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "#define" {
			name, _, _ := strings.Cut(f[1], "(")
			names = append(names, name)
		}
	}
	return names
}

// TestHeaderCandidatesMatchScan: for every header of a generated tree, and
// for several hint lists, the hunt returns exactly the plain scan's
// candidates (paths, order and flags), on the generated tree and on a
// clone that rewrites three .c files and removes a fourth after the first
// hunts have signed the shared file versions.
func TestHeaderCandidatesMatchScan(t *testing.T) {
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 7, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var headers, sources []string
	for _, p := range tr.Paths() {
		switch {
		case strings.HasSuffix(p, ".h"):
			headers = append(headers, p)
		case strings.HasSuffix(p, ".c"):
			sources = append(sources, p)
		}
	}
	if len(headers) < 20 || len(sources) < 100 {
		t.Fatalf("generated tree has %d headers and %d .c files", len(headers), len(sources))
	}

	check := func(name string, tree *fstree.Tree) {
		t.Helper()
		c := &Checker{tree: tree}
		found := 0
		for _, h := range headers {
			content, err := tree.Read(h)
			if err != nil {
				t.Fatal(err)
			}
			defs := definedNames(content)
			for _, hints := range [][]string{nil, defs, append(defs[:len(defs):len(defs)], "", "e")} {
				want := scanHeaderCandidates(tree, h, hints)
				got := c.findHeaderCandidates(h, hints)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s with hints %q:\n got %v\nwant %v", name, h, hints, got, want)
				}
				found += len(got)
			}
		}
		if found == 0 {
			t.Fatalf("%s: no header has a candidate", name)
		}
	}
	check("generated", tr)

	// Rewrite three .c files so that each includes one header and drops
	// the text it had, and remove a fourth.
	clone := tr.Clone()
	for i, p := range []string{sources[3], sources[len(sources)/2], sources[len(sources)-1]} {
		h := headers[len(headers)-1-i]
		clone.Write(p, fmt.Sprintf("#include <%s>\nint f%d;\n", strings.TrimPrefix(h, "include/"), i))
	}
	if err := clone.Remove(sources[10]); err != nil {
		t.Fatal(err)
	}
	check("clone", clone)
	check("generated after clone", tr)
}
