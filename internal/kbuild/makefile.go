// Package kbuild implements a Kbuild-style build system over an in-memory
// source tree: per-directory Makefiles with obj-$(CONFIG_X) rules,
// composite objects, directory descent, single-target preprocessing
// (`make file.i`) and compilation (`make file.o`), plus the Makefile
// heuristics JMake uses to guess gating configuration variables (§III-C).
//
// One configuration-free walk (descent.go) follows a file's descent from
// the root Makefile to its obj- rule, and a MakefileCache memoizes it per
// directory and architecture of one tree snapshot. Builder.Reachable
// evaluates that walk under a configuration; MakefileCache.FileGate
// collects its variables. Every descent goes through a MakefileCache: a
// check shares one between all its builders and its static pre-pass, the
// audit and jmake-lint keep one per tree, so each makefile is loaded once
// per architecture and snapshot. Loads go through LoadMakefile, whose
// parses are memoized by path and content, so per-patch clones of a tree
// share them and an edited makefile is parsed afresh.
package kbuild

import (
	"errors"
	"fmt"
	"path"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"

	"jmake/internal/fstree"
)

// ErrNoMakefile is returned when a directory on the build path has no
// Makefile.
var ErrNoMakefile = errors.New("kbuild: no Makefile found")

// ObjRule is one `obj-$(COND) += targets...` line. CondVar is the CONFIG
// variable name without the CONFIG_ prefix; "" means unconditionally built
// (obj-y). Module is true for obj-m rules. Line is the rule's 1-based line
// number in the makefile, so audits can point at the exact reference.
type ObjRule struct {
	CondVar string
	Module  bool
	Targets []string // "foo.o" or "subdir/"
	Line    int
}

// Makefile is a parsed Kbuild makefile.
type Makefile struct {
	Path string
	Objs []ObjRule
	// Composites maps a composite object name ("foo", from foo.o) to its
	// constituent object files, from `foo-objs := a.o b.o` or `foo-y := ...`.
	Composites map[string][]string
	// compOrder lists the Composites names in order of first appearance, so
	// an object listed in two composites always resolves to the first.
	compOrder []string
	// ConfigVars lists every CONFIG_* variable mentioned anywhere in the
	// file, for the fallback gating heuristic.
	ConfigVars []string
}

var (
	objRuleRe   = regexp.MustCompile(`^obj-(y|m|\$\(CONFIG_([A-Za-z0-9_]+)\))\s*[+:]?=\s*(.*)$`)
	compositeRe = regexp.MustCompile(`^([A-Za-z0-9_\-]+)-(objs|y)\s*[+:]?=\s*(.*)$`)
	configVarRe = regexp.MustCompile(`CONFIG_([A-Za-z0-9_]+)`)
)

// ParseMakefile parses Kbuild makefile content. archName replaces
// $(SRCARCH)/$(ARCH) references, which the root Makefile uses to descend
// into the architecture directory.
func ParseMakefile(mkPath, content, archName string) *Makefile {
	content = strings.ReplaceAll(content, "$(SRCARCH)", archName)
	content = strings.ReplaceAll(content, "$(ARCH)", archName)
	mf := &Makefile{Path: mkPath, Composites: make(map[string][]string)}
	seenVar := make(map[string]bool)
	for num, raw := range strings.Split(content, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, m := range configVarRe.FindAllStringSubmatch(line, -1) {
			if !seenVar[m[1]] {
				seenVar[m[1]] = true
				mf.ConfigVars = append(mf.ConfigVars, m[1])
			}
		}
		if m := objRuleRe.FindStringSubmatch(line); m != nil {
			rule := ObjRule{Targets: strings.Fields(m[3]), Line: num + 1}
			switch {
			case m[1] == "y":
			case m[1] == "m":
				rule.Module = true
			default:
				rule.CondVar = m[2]
			}
			mf.Objs = append(mf.Objs, rule)
			continue
		}
		if m := compositeRe.FindStringSubmatch(line); m != nil && m[1] != "obj" {
			name := strings.TrimSuffix(m[1], "-")
			if _, ok := mf.Composites[name]; !ok {
				mf.compOrder = append(mf.compOrder, name)
			}
			mf.Composites[name] = append(mf.Composites[name], strings.Fields(m[3])...)
		}
	}
	return mf
}

// LoadMakefile reads and parses the makefile for directory dir, trying
// "Makefile" then "Kbuild". The result is shared with every other caller
// that loads the same content and must not be modified.
func LoadMakefile(t *fstree.Tree, dir, archName string) (*Makefile, error) {
	for _, name := range []string{"Makefile", "Kbuild"} {
		p := path.Join(dir, name)
		if content, err := t.Read(p); err == nil {
			return parseShared(p, content, archName), nil
		}
	}
	return nil, fmt.Errorf("%w in %s", ErrNoMakefile, dir)
}

// memoLimit bounds the parse memo. One scale-1.0 tree has 115 makefiles
// plus one root parse per architecture, so the memo holds a few trees'
// worth before it is cleared.
const memoLimit = 512

// memoKey identifies one parse: the makefile's path and content, and the
// architecture only when the content names a variable ParseMakefile
// substitutes.
type memoKey struct{ path, content, arch string }

var memo = struct {
	sync.Mutex
	parsed map[memoKey]*Makefile
}{parsed: make(map[memoKey]*Makefile)}

// parseShared is ParseMakefile through the package memo. Keying on content
// lets per-patch clones of one tree share parses while an edited makefile
// misses; because the key holds everything a parse depends on, sessions and
// tests sharing the memo cannot see each other's trees. The memo is cleared
// whole once it passes memoLimit entries, so parses of many distinct trees
// cannot pile up.
func parseShared(mkPath, content, archName string) *Makefile {
	key := memoKey{path: mkPath, content: content}
	if strings.Contains(content, "$(SRCARCH)") || strings.Contains(content, "$(ARCH)") {
		key.arch = archName
	}
	memo.Lock()
	mf := memo.parsed[key]
	memo.Unlock()
	if mf != nil {
		return mf
	}
	mf = ParseMakefile(mkPath, content, archName)
	memo.Lock()
	if len(memo.parsed) >= memoLimit {
		clear(memo.parsed)
	}
	memo.parsed[key] = mf
	memo.Unlock()
	return mf
}

// maxCompositeDepth bounds composite resolution, so a composite that lists
// itself (foo-y := foo.o) ends the lookup instead of recursing forever.
const maxCompositeDepth = 8

// ruleFor returns the rule covering target ("foo.o" or "sub/") and whether
// one exists. Composite membership is resolved: if target belongs to
// foo-objs, the rule for foo.o applies; composites are tried in makefile
// order.
func (mf *Makefile) ruleFor(target string) (ObjRule, bool) {
	return mf.ruleAt(target, 0)
}

func (mf *Makefile) ruleAt(target string, depth int) (ObjRule, bool) {
	if depth > maxCompositeDepth {
		return ObjRule{}, false
	}
	for _, r := range mf.Objs {
		if slices.Contains(r.Targets, target) {
			return r, true
		}
	}
	if strings.HasSuffix(target, ".o") {
		for _, comp := range mf.compOrder {
			if slices.Contains(mf.Composites[comp], target) {
				return mf.ruleAt(comp+".o", depth+1)
			}
		}
	}
	return ObjRule{}, false
}

// GatingConfigs implements the paper's §III-C Makefile heuristic for a .c
// file: configuration variables on lines that mention the file's .o,
// recursively through composite-object labels, falling back to every
// CONFIG variable in the Makefile when nothing more specific is found.
func GatingConfigs(t *fstree.Tree, cFile, archName string) ([]string, error) {
	mf, err := LoadMakefile(t, path.Dir(cFile), archName)
	if err != nil {
		return nil, err
	}
	obj := strings.TrimSuffix(path.Base(cFile), ".c") + ".o"
	vars := make(map[string]bool)
	collectGating(mf, obj, vars, 0, make(map[string]int))
	if len(vars) == 0 {
		for _, v := range mf.ConfigVars {
			vars[v] = true
		}
	}
	out := make([]string, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Strings(out)
	return out, nil
}

// collectGating adds the variables of rules naming obj, following composite
// labels up to maxCompositeDepth hops. reached records the shallowest depth
// each object was expanded at, so duplicated members cannot make the
// recursion exponential.
func collectGating(mf *Makefile, obj string, vars map[string]bool, depth int, reached map[string]int) {
	if d, ok := reached[obj]; depth > maxCompositeDepth || ok && d <= depth {
		return
	}
	reached[obj] = depth
	for _, r := range mf.Objs {
		if r.CondVar != "" && slices.Contains(r.Targets, obj) {
			vars[r.CondVar] = true
		}
	}
	// Composite labels whose member list mentions obj: recurse on the
	// label's own .o.
	for _, comp := range mf.compOrder {
		if slices.Contains(mf.Composites[comp], obj) {
			collectGating(mf, comp+".o", vars, depth+1, reached)
		}
	}
}
