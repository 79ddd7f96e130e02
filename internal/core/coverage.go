package core

import (
	"fmt"
	"sort"
	"strings"

	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/presence"
	"jmake/internal/trace"
)

// maxCoverageConfigs bounds how many synthesized configurations one patch
// may try (the exploration the paper wants to keep cheap, §VII).
const maxCoverageConfigs = 4

// coverageWants derives the targeted symbol wants that would activate the
// branches guarding an uncovered mutation: for each enclosing branch,
// outermost first, one satisfying assignment of its presence formula —
// an option that must be on wants y (plus its dependency chain), one that
// must be off wants n. Branches no configuration can influence (MODULE,
// non-CONFIG macros, undeclared options, unsatisfiable or over-wide
// formulas) yield nil.
func coverageWants(pf *presence.File, m *mutEntry, kt *kconfig.Tree) map[string]kconfig.Value {
	wants := make(map[string]kconfig.Value)
	for _, fr := range pf.Frames(m.mut.Line) {
		assign, sat, exact := presence.SatAssignment(fr.Cond)
		if !sat || !exact {
			return nil
		}
		for _, sym := range presence.Symbols(fr.Cond) {
			if !presence.IsConfigSymbol(sym) {
				return nil
			}
			name := strings.TrimPrefix(sym, "CONFIG_")
			if !assign[sym] {
				wants[name] = kconfig.No
				continue
			}
			if kt.Symbol(name) == nil {
				return nil
			}
			for k, v := range kt.DependencyWants(name, kconfig.Yes) {
				wants[k] = v
			}
		}
	}
	if len(wants) == 0 {
		return nil
	}
	return wants
}

func wantsKey(wants map[string]kconfig.Value) string {
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s,", k, wants[k])
	}
	return b.String()
}

// processCoverageConfigs is the §VII extension: for mutations that every
// standard configuration missed, synthesize configurations that force the
// guarding variables to the needed values (Vampyr/Troll-style), and try
// again on the host architecture.
func (c *Checker) processCoverageConfigs(report *PatchReport, mutatedTree *fstree.Tree, cFiles []*fileState) {
	arch, ok := c.arches[kbuild.HostArch]
	if !ok {
		return
	}
	kt, err := c.configs.KconfigTree(c.tree, arch)
	if err != nil {
		return
	}
	covSpan := c.rec.Open(trace.KindCoverage, trace.A("arch", kbuild.HostArch))
	defer c.rec.Close(covSpan)
	tried := make(map[string]bool)
	budget := maxCoverageConfigs

	for _, fs := range cFiles {
		if budget <= 0 || c.run.halted() {
			break
		}
		pending := fs.pendingLive()
		if len(pending) == 0 {
			continue
		}
		pf := presenceOf(fs)
		for _, m := range pending {
			if budget <= 0 || c.run.halted() {
				break
			}
			wants := coverageWants(pf, m, kt)
			if wants == nil {
				continue
			}
			key := wantsKey(wants)
			if tried[key] {
				continue
			}
			tried[key] = true
			budget--

			cfg := kt.ConfigWithWants(wants)
			// Verify the wants were actually satisfiable before paying for
			// a build.
			satisfied := true
			for k, v := range wants {
				if cfg.Value(k) != v {
					satisfied = false
					break
				}
			}
			d := c.model.ConfigCreate(kt.Len(), report.Commit+":coverage:"+key)
			report.ConfigDurations = append(report.ConfigDurations, d)
			c.run.charge(d)
			if sp := c.rec.Leaf(trace.KindConfig, d,
				trace.A("arch", kbuild.HostArch),
				trace.A("config", "coverage:"+key)); sp != nil {
				sp.Key = configTraceKey(kbuild.HostArch, "coverage", key)
			}
			if !satisfied {
				continue
			}
			bp, err := c.newPair(mutatedTree, arch, cfg)
			if err != nil {
				continue
			}
			c.runGroup(report, bp, kbuild.HostArch,
				ConfigChoice{Kind: ConfigCoverage}, []*fileState{fs}, fs.muts)
		}
	}
}
