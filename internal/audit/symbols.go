package audit

import (
	"fmt"
	"sort"
	"strings"

	"jmake/internal/kconfig"
	"jmake/internal/presence"
)

// Symbol-level checks. Each check runs per architecture and is aggregated:
// a finding is reported only when it holds in *every* architecture where
// the check applies (flagged == applicable), because an option usable
// somewhere is not a tree-wide defect. The representative finding comes
// from the first flagging architecture in sorted order, so reports are
// deterministic.

// symIssue is one per-arch flag, keyed for cross-arch aggregation.
type symIssue struct {
	key string
	f   Finding
}

type symAgg struct {
	applicable, flagged int
	f                   Finding
	has                 bool
}

// checkSymbols runs the dead-symbol, chain-contradiction, and
// select-vs-depends checks over every architecture and aggregates.
func checkSymbols(arches []*archCtx, ignore map[string]bool, suppressed *int) ([]Finding, int) {
	aggs := make(map[string]*symAgg)
	get := func(key string) *symAgg {
		a := aggs[key]
		if a == nil {
			a = &symAgg{}
			aggs[key] = a
		}
		return a
	}
	unknown := 0
	for _, ac := range arches {
		flagged, applicable, unk := checkArchSymbols(ac)
		unknown += unk
		for key := range applicable {
			get(key).applicable++
		}
		for _, si := range flagged {
			a := get(si.key)
			a.flagged++
			if !a.has {
				a.f = si.f
				a.has = true
			}
		}
	}
	keys := make([]string, 0, len(aggs))
	for k := range aggs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Finding
	for _, k := range keys {
		a := aggs[k]
		if !a.has || a.flagged != a.applicable {
			continue
		}
		if ignored(ignore, a.f.Symbol) {
			*suppressed++
			continue
		}
		out = append(out, a.f)
	}
	return out, unknown
}

// checkArchSymbols runs the three symbol checks in one architecture.
// applicable records every check key that could have fired here, so the
// aggregator can demand unanimity across declaring architectures.
func checkArchSymbols(ac *archCtx) (flagged []symIssue, applicable map[string]bool, unknown int) {
	kt := ac.kt
	selects := kt.SelectTargets()
	applicable = make(map[string]bool)
	names := kt.Names()
	sort.Strings(names)
	for _, name := range names {
		s := kt.Symbol(name)
		if s == nil {
			continue
		}
		deadKey := "dead\x00" + name
		chainKey := "chain\x00" + name
		applicable[deadKey] = true
		applicable[chainKey] = true

		// Select targets are exempt from dependency-based deadness: a
		// select raises them regardless of their own depends-on.
		ownDead := presence.SatYes
		if !selects[name] && s.DependsOn != nil {
			enabled, _ := presence.DependsFormulas(kt, s.DependsOn)
			enabled = presence.Substitute(enabled, presence.UndeclaredKnow(kt))
			ownDead = presence.Decide(enabled)
			switch ownDead {
			case presence.SatNo:
				flagged = append(flagged, symIssue{deadKey, Finding{
					Category: CatDeadSymbol,
					File:     s.DefFile,
					Symbol:   name,
					Detail: fmt.Sprintf("depends on %s is unsatisfiable: no configuration can enable %s",
						s.DependsOn.String(), name),
				}})
			case presence.SatUnknown:
				unknown++
			}
		}

		// Chain contradiction: each link satisfiable on its own, but the
		// transitive closure of depends-on implications is not. Skipped
		// when the symbol is already dead by its own clause.
		if !selects[name] && s.DependsOn != nil && ownDead != presence.SatNo {
			ch := chainFormula(ac, name)
			switch presence.Decide(ch) {
			case presence.SatNo:
				flagged = append(flagged, symIssue{chainKey, Finding{
					Category: CatContradiction,
					File:     s.DefFile,
					Symbol:   name,
					Detail: fmt.Sprintf("depends-on chain of %s is contradictory: the transitive dependency closure admits no configuration",
						name),
				}})
			case presence.SatUnknown:
				unknown++
			}
		}

		// Select-vs-depends: the selector is enableable, but every
		// configuration that enables it violates the selected symbol's
		// own dependencies (which `select` forcibly ignores).
		for i, sel := range s.Selects {
			selKey := fmt.Sprintf("sel\x00%s\x00%d\x00%s", name, i, sel.Target)
			applicable[selKey] = true
			tgt := kt.Symbol(sel.Target)
			if tgt == nil || tgt.DependsOn == nil {
				continue
			}
			base := chainFormula(ac, name)
			if sel.Cond != nil {
				condEn, _ := presence.DependsFormulas(kt, sel.Cond)
				base = presence.And(base, presence.Substitute(condEn, presence.UndeclaredKnow(kt)))
			}
			switch presence.Decide(base) {
			case presence.SatNo:
				continue // selector itself unreachable: reported elsewhere
			case presence.SatUnknown:
				unknown++
				continue
			}
			tgtEn, _ := presence.DependsFormulas(kt, tgt.DependsOn)
			tgtEn = presence.Substitute(tgtEn, presence.UndeclaredKnow(kt))
			switch presence.Decide(presence.And(base, tgtEn)) {
			case presence.SatNo:
				flagged = append(flagged, symIssue{selKey, Finding{
					Category: CatContradiction,
					File:     s.DefFile,
					Symbol:   name,
					Detail: fmt.Sprintf("select %s conflicts with its dependency (%s): every configuration enabling %s violates it",
						sel.Target, tgt.DependsOn.String(), name),
				}})
			case presence.SatUnknown:
				unknown++
			}
		}
	}
	return flagged, applicable, unknown
}

// chainFormula conjoins the symbol's enabled-formula with the depends-on
// implications of every symbol reachable through it, to a fixed depth.
// Each symbol is constrained at most once, so self-dependencies and
// cycles terminate; select targets stay unconstrained (a select can raise
// them past their depends-on). Symbols beyond the depth bound stay free,
// which only widens satisfiability and keeps SatNo proofs sound.
func chainFormula(ac *archCtx, name string) presence.Formula {
	kt := ac.kt
	selects := kt.SelectTargets()
	f := presence.SymbolEnabled(kt, name)
	done := make(map[string]bool)
	for depth := 0; depth < 8; depth++ {
		added := false
		for _, sym := range presence.Symbols(f) {
			if !presence.IsConfigSymbol(sym) || done[sym] {
				continue
			}
			done[sym] = true
			base := strings.TrimPrefix(sym, "CONFIG_")
			root, isMod := base, false
			if kt.Symbol(base) == nil {
				r, ok := strings.CutSuffix(base, "_MODULE")
				if !ok {
					continue
				}
				root, isMod = r, true
			}
			s := kt.Symbol(root)
			if s == nil || selects[root] || s.DependsOn == nil {
				continue
			}
			enabled, isYes := presence.DependsFormulas(kt, s.DependsOn)
			yVar := presence.Symbol("CONFIG_" + root)
			mVar := presence.Symbol("CONFIG_" + root + "_MODULE")
			switch {
			case isMod:
				f = presence.And(f, presence.Implies(mVar, enabled))
			case s.Type == kconfig.TypeTristate:
				f = presence.And(f, presence.Implies(yVar, isYes))
			default:
				f = presence.And(f, presence.Implies(yVar, enabled))
			}
			added = true
		}
		if !added {
			break
		}
	}
	return presence.Substitute(f, presence.UndeclaredKnow(kt))
}
