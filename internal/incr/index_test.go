package incr

import (
	"reflect"
	"testing"

	"jmake/internal/fstree"
)

// indexTree is a hand-built tree exercising every edge class the index
// models: direct and transitive includes (angle and quoted), a shared
// header with two dependents, a Makefile-gated directory, and files
// outside any closure.
func indexTree() *fstree.Tree {
	tr := fstree.New()
	tr.Write("drivers/foo/main.c", "#include <linux/top.h>\nint main_v;\n")
	tr.Write("drivers/foo/aux.c", "#include \"local.h\"\nint aux_v;\n")
	tr.Write("drivers/foo/local.h", "#include <linux/top.h>\n#define L 1\n")
	tr.Write("drivers/foo/Makefile", "obj-y += main.o aux.o\n")
	tr.Write("drivers/bar/lone.c", "int lone_v;\n")
	tr.Write("include/linux/top.h", "#include <linux/base.h>\n#define T 1\n")
	tr.Write("include/linux/base.h", "#define B 1\n")
	return tr
}

func deps(t *testing.T, ix *Index, tr *fstree.Tree, changed ...string) []string {
	t.Helper()
	return ix.Dependents(tr, nil, changed)
}

func wantDeps(t *testing.T, got []string, want ...string) {
	t.Helper()
	if want == nil {
		want = []string{}
	}
	if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Errorf("dependents = %v, want %v", got, want)
	}
}

func TestIndexDirectAndTransitiveHeaders(t *testing.T) {
	tr := indexTree()
	ix := NewIndex(tr)

	// Direct: top.h is named by main.c and local.h; local.h expands to aux.c.
	wantDeps(t, deps(t, ix, tr, "include/linux/top.h"),
		"drivers/foo/aux.c", "drivers/foo/main.c")
	// Transitive: base.h is only reached through top.h, same blast radius.
	wantDeps(t, deps(t, ix, tr, "include/linux/base.h"),
		"drivers/foo/aux.c", "drivers/foo/main.c")
	// Quoted include: local.h reaches only its includer.
	wantDeps(t, deps(t, ix, tr, "drivers/foo/local.h"), "drivers/foo/aux.c")
	// A header no one includes has no dependents.
	tr.Write("include/linux/orphan.h", "#define O 1\n")
	ix.Update(tr, []string{"include/linux/orphan.h"})
	wantDeps(t, deps(t, ix, tr, "include/linux/orphan.h"))
}

func TestIndexSelfAndKbuildEdges(t *testing.T) {
	tr := indexTree()
	ix := NewIndex(tr)

	// A changed .c file is its own (only) dependent.
	wantDeps(t, deps(t, ix, tr, "drivers/bar/lone.c"), "drivers/bar/lone.c")
	// A changed Makefile pulls in every TU under its directory, nothing else.
	wantDeps(t, deps(t, ix, tr, "drivers/foo/Makefile"),
		"drivers/foo/aux.c", "drivers/foo/main.c")
	// Mixed change sets union their radii.
	wantDeps(t, deps(t, ix, tr, "drivers/bar/lone.c", "drivers/foo/local.h"),
		"drivers/bar/lone.c", "drivers/foo/aux.c")
}

func TestIndexUpdateRewritesEdges(t *testing.T) {
	tr := indexTree()
	ix := NewIndex(tr)

	// main.c stops including top.h: it leaves top.h's blast radius.
	tr.Write("drivers/foo/main.c", "int main_v;\n")
	ix.Update(tr, []string{"drivers/foo/main.c"})
	wantDeps(t, deps(t, ix, tr, "include/linux/top.h"), "drivers/foo/aux.c")

	// aux.c is deleted: its edges disappear with it.
	tr.Remove("drivers/foo/aux.c")
	ix.Update(tr, []string{"drivers/foo/aux.c"})
	wantDeps(t, deps(t, ix, tr, "include/linux/top.h"))
	wantDeps(t, deps(t, ix, tr, "drivers/foo/local.h"))

	// A new includer gains edges immediately.
	tr.Write("drivers/bar/fresh.c", "#include <linux/base.h>\nint fv;\n")
	ix.Update(tr, []string{"drivers/bar/fresh.c"})
	wantDeps(t, deps(t, ix, tr, "include/linux/base.h"), "drivers/bar/fresh.c")
}

func TestIndexSuffixMatchingIsPathPrecise(t *testing.T) {
	tr := fstree.New()
	// Both headers end in "top.h", but only a /-separated suffix matches:
	// `#include <linux/top.h>` can resolve to include/linux/top.h, never to
	// include/linux/stop.h.
	tr.Write("include/linux/top.h", "#define T 1\n")
	tr.Write("include/linux/stop.h", "#define S 1\n")
	tr.Write("a.c", "#include <linux/top.h>\n")
	ix := NewIndex(tr)
	wantDeps(t, deps(t, ix, tr, "include/linux/top.h"), "a.c")
	wantDeps(t, deps(t, ix, tr, "include/linux/stop.h"))
}
