package core

import (
	"sort"
	"strings"

	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/presence"
)

// This file implements the Options.StaticPresence pre-pass: before any
// build runs, every mutation's changed line gets a presence condition
// (#if nesting stack ∧ Kbuild gate ∧ Kconfig constraints) and three things
// are derived from it:
//
//  1. dead marking — a mutation whose condition is exactly unsatisfiable
//     under every candidate architecture can never surface in a .i, so the
//     checker stops chasing it (and skips the file's builds entirely when
//     every mutation is dead);
//  2. per-architecture allyesconfig visibility predictions, used to order
//     candidate architectures by expected witness count and cross-checked
//     against the actual .i markers (PatchReport.StaticDynamicDisagreements);
//  3. nothing else: live lines keep the full dynamic pipeline, so the
//     certification semantics are unchanged.
//
// Everything here over-approximates satisfiability. Opaque conditions stay
// free variables, unknown gates drop to the stack condition alone, and a
// Kconfig parse failure makes the architecture count as alive — a line is
// only marked dead on an exact proof.

// staticInfo holds the per-file result of the presence pre-pass.
type staticInfo struct {
	// predict[arch][mutID] reports whether the mutation's marker is
	// predicted to appear in the file's .i under that architecture's
	// allyesconfig. Mutations whose condition depends on something the
	// static model cannot resolve are absent — no prediction, no
	// disagreement risk.
	predict map[string]map[string]bool
	// predCount[arch] counts predicted-visible mutations, for ordering
	// candidate architectures.
	predCount map[string]int
}

// archGate pairs an architecture's Kconfig tree (nil when it failed to
// parse) with the file's Kbuild gate under that architecture (nil when the
// Makefile walk failed).
type archGate struct {
	arch *kbuild.Arch
	kt   *kconfig.Tree
	gate *kbuild.Gate
}

// staticPrepass analyzes every changed file, marks dead mutations, counts
// the make invocations pruned by fully-dead files, and computes visibility
// predictions for .c files.
func (c *Checker) staticPrepass(report *PatchReport, cFiles, hFiles []*fileState) {
	for _, fs := range cFiles {
		c.staticAnalyzeC(fs)
		if fs.allDead() {
			// The file would otherwise have been preprocessed and compiled
			// at least once.
			report.StaticSkippedMakeI++
			report.StaticSkippedMakeO++
		}
	}
	for _, fs := range hFiles {
		c.staticAnalyzeH(fs)
		if fs.allDead() {
			report.StaticSkippedMakeI++
		}
	}
}

// staticAnalyzeC computes presence conditions for a changed .c file, marks
// mutations dead when unsatisfiable under every candidate architecture, and
// predicts per-architecture allyesconfig visibility for the live ones.
func (c *Checker) staticAnalyzeC(fs *fileState) {
	pf := c.presenceOf(fs)
	if pf == nil {
		return
	}
	si := &staticInfo{
		predict:   make(map[string]map[string]bool),
		predCount: make(map[string]int),
	}
	fs.static = si

	// The candidate architectures are exactly the ones the dynamic loop
	// would try (§III-C); a witness can only ever come from those.
	var archNames []string
	seen := make(map[string]bool)
	for _, ac := range c.selectArches(fs.path, true) {
		if !seen[ac.Arch] {
			seen[ac.Arch] = true
			archNames = append(archNames, ac.Arch)
		}
	}
	ags := c.archGates(fs.path, archNames, true)

	for _, m := range fs.muts {
		m.dead = condDead(pf.LineCond(m.mut.Line), ags)
	}
	for _, ag := range ags {
		c.predictArch(fs, pf, si, ag)
	}
}

// staticAnalyzeH marks dead mutations in a changed header. Headers have no
// Kbuild gate of their own; deadness is proven against the #if stack and
// every working architecture's Kconfig tree (an arch/<A>/ header against A
// alone). Predictions are not computed: which candidate .c witnesses a
// header is not derivable from the header's own conditions.
func (c *Checker) staticAnalyzeH(fs *fileState) {
	pf := c.presenceOf(fs)
	if pf == nil {
		return
	}
	fs.static = &staticInfo{
		predict:   make(map[string]map[string]bool),
		predCount: make(map[string]int),
	}
	ags := c.archGates(fs.path, c.headerArches(fs.path), false)
	for _, m := range fs.muts {
		m.dead = condDead(pf.LineCond(m.mut.Line), ags)
	}
}

// headerArches lists the architectures whose compilations could pull in the
// header: its own for arch/<A>/ headers, every working one otherwise.
func (c *Checker) headerArches(path string) []string {
	if strings.HasPrefix(path, "arch/") {
		rest := strings.TrimPrefix(path, "arch/")
		if i := strings.IndexByte(rest, '/'); i > 0 {
			if a := c.arches[rest[:i]]; a != nil && !a.Broken {
				return []string{rest[:i]}
			}
			return nil
		}
	}
	var out []string
	for _, name := range kbuild.ArchNames(c.arches) {
		if !c.arches[name].Broken {
			out = append(out, name)
		}
	}
	return out
}

// archGates resolves each architecture's Kconfig tree from the session's
// parse cache and (for gated .c files) the file's Kbuild gate under it.
func (c *Checker) archGates(path string, archNames []string, gated bool) []archGate {
	if gated && c.gates == nil {
		c.gates = kbuild.NewMakefileCache(c.tree)
	}
	var out []archGate
	for _, an := range archNames {
		arch := c.arches[an]
		if arch == nil {
			continue
		}
		ag := archGate{arch: arch}
		ag.kt, _ = c.configs.KconfigTree(c.tree, arch) // a failed parse leaves kt nil: alive
		if gated {
			if g, err := c.gates.FileGate(path, an); err == nil {
				ag.gate = &g
			}
		}
		out = append(out, ag)
	}
	return out
}

// condDead reports whether cond is exactly unsatisfiable under every
// candidate architecture. No candidates means no proof.
func condDead(cond presence.Formula, ags []archGate) bool {
	if len(ags) == 0 {
		return false
	}
	for _, ag := range ags {
		if archAlive(ag, cond) {
			return false
		}
	}
	return true
}

// archAlive reports whether cond could hold under some configuration of one
// architecture: the condition is conjoined with the file's Kbuild gate and
// the Kconfig constraints over its symbols (presence.ArchFormula), then
// checked for satisfiability. Any gap in knowledge — a parse failure, or a
// formula wider than the SAT bound — errs toward alive.
func archAlive(ag archGate, cond presence.Formula) bool {
	if ag.kt == nil {
		return true
	}
	return presence.Decide(presence.ArchFormula(ag.kt, cond, ag.gate)) != presence.SatNo
}

// predictArch evaluates each live mutation's condition under one
// architecture's allyesconfig, with the gate archGates resolved. Only
// conditions the model fully resolves produce a prediction; define-kind
// mutations never do (their markers surface at macro use sites, not at the
// definition line).
func (c *Checker) predictArch(fs *fileState, pf *presence.File, si *staticInfo, ag archGate) {
	kt, gate := ag.kt, ag.gate
	if kt == nil || ag.arch.Broken || gate == nil {
		return
	}
	archName := ag.arch.Name
	cfg, _, err := c.configs.Get(c.tree, ag.arch, ConfigChoice{Kind: ConfigAllYes}, nil)
	if err != nil {
		return
	}
	// The file itself must be reachable for its markers to appear at all.
	for _, v := range gate.Vars {
		if cfg.Value(v) == kconfig.No {
			return
		}
	}
	asModule := gate.OwnModule || (gate.OwnVar != "" && cfg.Value(gate.OwnVar) == kconfig.Mod)
	know := func(name string) (bool, bool) {
		switch name {
		case "defined(MODULE)", "?MODULE":
			return asModule, true
		}
		if !presence.IsConfigSymbol(name) {
			return false, false
		}
		base := strings.TrimPrefix(name, "CONFIG_")
		if kt.Symbol(base) != nil {
			return cfg.Value(base) == kconfig.Yes, true
		}
		if root, ok := strings.CutSuffix(base, "_MODULE"); ok {
			if kt.Symbol(root) != nil {
				return cfg.Value(root) == kconfig.Mod, true
			}
		}
		return false, true // undeclared: autoconf never defines it
	}
	preds := make(map[string]bool)
	for _, m := range fs.muts {
		if m.dead || m.mut.Kind == "define" {
			continue
		}
		v, known := presence.EvalPartial(pf.LineCond(m.mut.Line), know)
		if !known {
			continue
		}
		preds[m.mut.ID] = v
		if v {
			si.predCount[archName]++
		}
	}
	if len(preds) > 0 {
		si.predict[archName] = preds
	}
}

// orderByPredictedWitnesses stable-sorts candidate architectures by how
// many mutations their allyesconfig is predicted to witness, most first.
// Ties keep the merge order (host architecture first).
func orderByPredictedWitnesses(choices []ArchChoice, cFiles []*fileState) {
	score := make(map[string]int, len(choices))
	for _, ac := range choices {
		for _, fs := range cFiles {
			if fs.static != nil {
				score[ac.Arch] += fs.static.predCount[ac.Arch]
			}
		}
	}
	sort.SliceStable(choices, func(i, j int) bool {
		return score[choices[i].Arch] > score[choices[j].Arch]
	})
}

// recordDisagreements cross-checks one allyesconfig .i against the file's
// static predictions. Each prediction is checked once; a mismatch is a
// checker bug or a constraint the static model missed, never silent.
func (c *Checker) recordDisagreements(report *PatchReport, fs *fileState, archName string, found map[string]bool) {
	if fs.static == nil {
		return
	}
	preds := fs.static.predict[archName]
	for _, m := range fs.muts {
		want, ok := preds[m.mut.ID]
		if !ok {
			continue
		}
		if got := found[m.mut.ID]; got != want {
			report.StaticDynamicDisagreements = append(report.StaticDynamicDisagreements,
				StaticDisagreement{File: fs.path, Line: m.mut.Line, Arch: archName, Predicted: want, Observed: got})
			delete(preds, m.mut.ID)
		}
	}
}

// sortDisagreements puts the report's cross-check failures in a canonical
// order so the JSON output is invariant under worker scheduling.
func sortDisagreements(ds []StaticDisagreement) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Arch < b.Arch
	})
}
