package audit

import (
	"fmt"
	"sort"
	"strings"

	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/presence"
)

// gateRefFindings checks every obj-$(CONFIG_X) rule in the tree against
// the union of the architectures' symbol tables. The rule set is the same
// under any architecture name (the substituted $(SRCARCH) never appears
// inside a CONFIG variable), so one enumeration suffices.
func gateRefFindings(t *fstree.Tree, archName string, declared, ignore map[string]bool, suppressed *int) ([]Finding, int) {
	refs := kbuild.GateRefs(t, archName)
	var out []Finding
	for _, r := range refs {
		if declaredRoot(declared, r.Var) {
			continue
		}
		if ignored(ignore, r.Var) {
			*suppressed++
			continue
		}
		out = append(out, Finding{
			Category: CatUndefinedRef,
			File:     r.File,
			Line:     r.Line,
			Symbol:   r.Var,
			Detail:   fmt.Sprintf("obj-$(CONFIG_%s) references a symbol no Kconfig file declares", r.Var),
		})
	}
	return out, len(refs)
}

// archGate is a file's Kbuild gate in one architecture, nil when the
// descent chain is broken, once walked.
type archGate struct {
	walked bool
	gate   *kbuild.Gate
}

// fileScan is one file's audit result.
type fileScan struct {
	findings            []Finding
	unknown, suppressed int
}

// scanCtx is what every file scan of one audit reads.
type scanCtx struct {
	t        *fstree.Tree
	arches   []*archCtx
	declared map[string]bool
	ignore   map[string]bool
	// gates walks the Kbuild descent of .c files; nil when the tree has no
	// root Makefile, so no file is gated.
	gates *kbuild.MakefileCache
}

// scanFile audits one .c/.h file: CONFIG_* references in its conditionals
// against the declared-symbol union, and each conditional block's presence
// formula against every applicable architecture.
func (sc *scanCtx) scanFile(path string) fileScan {
	arches, declared, ignore := sc.arches, sc.declared, sc.ignore
	var fs fileScan
	content, err := sc.t.Read(path)
	if err != nil {
		return fs
	}
	fc := presence.Analyze(path, content)
	regs := fc.Regions()
	if len(regs) == 0 {
		return fs
	}

	// Undefined references: one finding per (file, symbol), anchored at the
	// first line the symbol governs.
	undefAt := make(map[string]int)
	for _, rg := range regs {
		for _, sym := range presence.Symbols(rg.Cond) {
			if !presence.IsConfigSymbol(sym) {
				continue
			}
			base := strings.TrimPrefix(sym, "CONFIG_")
			if declaredRoot(declared, base) {
				continue
			}
			if at, ok := undefAt[base]; !ok || rg.Start < at {
				undefAt[base] = rg.Start
			}
		}
	}
	undefSyms := make([]string, 0, len(undefAt))
	for s := range undefAt {
		undefSyms = append(undefSyms, s)
	}
	sort.Strings(undefSyms)
	for _, sym := range undefSyms {
		if ignored(ignore, sym) {
			fs.suppressed++
			continue
		}
		fs.findings = append(fs.findings, Finding{
			Category: CatUndefinedRef,
			File:     path,
			Line:     undefAt[sym],
			Symbol:   sym,
			Detail:   fmt.Sprintf("conditional references CONFIG_%s, which no Kconfig file declares", sym),
		})
	}

	// Dead blocks. A file under arch/<A>/ is only ever compiled for A;
	// everything else must be dead under every architecture. Kbuild gates
	// apply to .c files reached from a root Makefile; a broken descent
	// chain drops the gate (over-approximation, sound for dead proofs).
	archList := arches
	if rest, ok := strings.CutPrefix(path, "arch/"); ok {
		archList = nil
		if i := strings.IndexByte(rest, '/'); i > 0 {
			for _, ac := range arches {
				if ac.name == rest[:i] {
					archList = []*archCtx{ac}
					break
				}
			}
		}
	}
	// A file's gate in an architecture is walked at most once, and only
	// when some block's early break reaches that architecture.
	gated := strings.HasSuffix(path, ".c") && sc.gates != nil
	var gates []archGate
	gateIn := func(i int) *kbuild.Gate {
		if !gated {
			return nil
		}
		if gates == nil {
			gates = make([]archGate, len(archList))
		}
		ag := &gates[i]
		if !ag.walked {
			ag.walked = true
			if g, err := sc.gates.FileGate(path, archList[i].name); err == nil {
				ag.gate = &g
			}
		}
		return ag.gate
	}
	for _, rg := range regs {
		// Literal #if 0 (and the #else arm of #if 1) is the universal
		// idiom for commented-out code, not a configuration mismatch.
		if rg.Cond == presence.False {
			continue
		}
		syms := presence.Symbols(rg.Cond)
		hasConfig, hasUndef := false, false
		for _, sym := range syms {
			if !presence.IsConfigSymbol(sym) {
				continue
			}
			hasConfig = true
			if !declaredRoot(declared, strings.TrimPrefix(sym, "CONFIG_")) {
				hasUndef = true
			}
		}
		// Blocks without configuration symbols are out of scope, and blocks
		// over undefined symbols are already reported as undefined
		// references — proving them dead would double-count one defect.
		if !hasConfig || hasUndef {
			continue
		}
		dead := len(archList) > 0
		for i, ac := range archList {
			switch presence.Decide(ac.model.ArchFormula(rg.Cond, gateIn(i))) {
			case presence.SatYes:
				dead = false
			case presence.SatUnknown:
				fs.unknown++
				dead = false
			}
			if !dead {
				break
			}
		}
		if !dead {
			continue
		}
		supp := false
		firstSym := ""
		for _, sym := range syms {
			if !presence.IsConfigSymbol(sym) {
				continue
			}
			base := strings.TrimPrefix(sym, "CONFIG_")
			if firstSym == "" {
				firstSym = base
			}
			if ignored(ignore, base) {
				supp = true
			}
		}
		if supp {
			fs.suppressed++
			continue
		}
		fs.findings = append(fs.findings, Finding{
			Category: CatDeadCode,
			File:     path,
			Line:     rg.Start,
			EndLine:  rg.End,
			Symbol:   firstSym,
			Detail:   fmt.Sprintf("block is unsatisfiable in every architecture: %s", rg.Cond.String()),
		})
	}
	return fs
}
