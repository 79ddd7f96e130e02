package kbuild

import (
	"path"
	"sort"

	"jmake/internal/fstree"
)

// GateRef is one obj-$(CONFIG_X) reference in a Kbuild makefile: the audit
// uses these to cross-check every gating variable against the Kconfig
// symbol tables.
type GateRef struct {
	File string // makefile path within the tree
	Line int    // 1-based line of the obj- rule
	Var  string // CONFIG variable name without the prefix
}

// GateRefs enumerates every obj-$(CONFIG_X) rule in every Makefile/Kbuild
// file of the tree, in deterministic order (file path, then line). archName
// substitutes $(SRCARCH)/$(ARCH) during parsing, as in ParseMakefile.
func GateRefs(t *fstree.Tree, archName string) []GateRef {
	var refs []GateRef
	for _, p := range t.Paths() {
		base := path.Base(p)
		if base != "Makefile" && base != "Kbuild" {
			continue
		}
		content, err := t.Read(p)
		if err != nil {
			continue
		}
		mf := parseShared(p, content, archName)
		for _, r := range mf.Objs {
			if r.CondVar != "" {
				refs = append(refs, GateRef{File: p, Line: r.Line, Var: r.CondVar})
			}
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].File != refs[j].File {
			return refs[i].File < refs[j].File
		}
		return refs[i].Line < refs[j].Line
	})
	return refs
}
