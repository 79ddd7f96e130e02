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
// deterministic. A check is therefore decided in an architecture only
// while it can still become a finding: once one applicable architecture
// does not flag it, no later architecture builds or decides its formula.

// selKey identifies a symbol's select check: its index among the symbol's
// selects and the selected target.
type selKey struct {
	index  int
	target string
}

// keyState is one check of one symbol across the architectures, visited in
// sorted order. seen is set by the first applicable architecture, dropped
// by the first that does not flag the check, and f is the first flagging
// architecture's finding.
type keyState struct {
	seen, dropped bool
	f             Finding
}

// candidate reports whether the check can still become a finding.
func (k *keyState) candidate() bool { return !k.dropped }

// flag records an applicable architecture that flags the check.
func (k *keyState) flag(f Finding) {
	if !k.seen {
		k.f = f
	}
	k.seen = true
}

// miss records an applicable architecture that does not flag the check.
func (k *keyState) miss() { k.seen, k.dropped = true, true }

// selState is the cross-architecture state of one select check.
type selState struct {
	key selKey
	keyState
}

// checkSymbols runs the dead-symbol, chain-contradiction, and
// select-vs-depends checks of every declared symbol, in sorted order,
// across the architectures that declare it. The second result counts the
// checks that gave up at the enumeration bound.
func checkSymbols(arches []*archCtx, declared, ignore map[string]bool, suppressed *int) ([]Finding, int) {
	names := make([]string, 0, len(declared))
	for name := range declared {
		names = append(names, name)
	}
	sort.Strings(names)
	unknown := 0
	decide := func(f presence.Formula) presence.SatResult {
		r := presence.Decide(f)
		if r == presence.SatUnknown {
			unknown++
		}
		return r
	}
	var out []Finding
	var sels []selState
	for _, name := range names {
		var dead, chain keyState
		sels = sels[:0]
		for _, ac := range arches {
			kt := ac.kt
			s := kt.Symbol(name)
			if s == nil {
				continue
			}
			// Select targets are exempt from dependency-based deadness: a
			// select raises them regardless of their own depends-on.
			exempt := kt.SelectTargets()[name] || s.DependsOn == nil
			ownDead := presence.SatYes
			if !exempt && (dead.candidate() || chain.candidate()) {
				enabled, _ := presence.DependsFormulas(kt, s.DependsOn)
				ownDead = decide(presence.Substitute(enabled, presence.UndeclaredKnow(kt)))
			}
			if dead.candidate() {
				if ownDead == presence.SatNo {
					dead.flag(Finding{
						Category: CatDeadSymbol,
						File:     s.DefFile,
						Symbol:   name,
						Detail: fmt.Sprintf("depends on %s is unsatisfiable: no configuration can enable %s",
							s.DependsOn.String(), name),
					})
				} else {
					dead.miss()
				}
			}

			// Chain contradiction: each link satisfiable on its own, but the
			// transitive closure of depends-on implications is not. Skipped
			// when the symbol is already dead by its own clause. The chain
			// formula is built at most once per architecture: every select
			// check below shares it.
			var ch presence.Formula
			if chain.candidate() {
				if !exempt && ownDead != presence.SatNo {
					ch = chainFormula(ac, name)
				}
				if ch != nil && decide(ch) == presence.SatNo {
					chain.flag(Finding{
						Category: CatContradiction,
						File:     s.DefFile,
						Symbol:   name,
						Detail: fmt.Sprintf("depends-on chain of %s is contradictory: the transitive dependency closure admits no configuration",
							name),
					})
				} else {
					chain.miss()
				}
			}

			// Select-vs-depends: the selector is enableable, but every
			// configuration that enables it violates the selected symbol's
			// own dependencies (which `select` forcibly ignores).
			for i, sel := range s.Selects {
				st := selStateOf(&sels, selKey{i, sel.Target})
				if !st.candidate() {
					continue
				}
				tgt := kt.Symbol(sel.Target)
				if tgt == nil || tgt.DependsOn == nil {
					st.miss()
					continue
				}
				if ch == nil {
					ch = chainFormula(ac, name)
				}
				base := ch
				if sel.Cond != nil {
					condEn, _ := presence.DependsFormulas(kt, sel.Cond)
					base = presence.And(base, presence.Substitute(condEn, presence.UndeclaredKnow(kt)))
				}
				// An unreachable selector is reported elsewhere.
				if decide(base) != presence.SatYes {
					st.miss()
					continue
				}
				tgtEn, _ := presence.DependsFormulas(kt, tgt.DependsOn)
				tgtEn = presence.Substitute(tgtEn, presence.UndeclaredKnow(kt))
				if decide(presence.And(base, tgtEn)) == presence.SatNo {
					st.flag(Finding{
						Category: CatContradiction,
						File:     s.DefFile,
						Symbol:   name,
						Detail: fmt.Sprintf("select %s conflicts with its dependency (%s): every configuration enabling %s violates it",
							sel.Target, tgt.DependsOn.String(), name),
					})
				} else {
					st.miss()
				}
			}
		}
		out = appendHeld(out, &dead, ignore, suppressed)
		out = appendHeld(out, &chain, ignore, suppressed)
		for i := range sels {
			out = appendHeld(out, &sels[i].keyState, ignore, suppressed)
		}
	}
	return out, unknown
}

// selStateOf returns the state of a select check, adding it on first use.
func selStateOf(sels *[]selState, key selKey) *keyState {
	for i := range *sels {
		if (*sels)[i].key == key {
			return &(*sels)[i].keyState
		}
	}
	*sels = append(*sels, selState{key: key})
	return &(*sels)[len(*sels)-1].keyState
}

// appendHeld appends a check's finding when every applicable architecture
// flagged it, counting it suppressed instead when its symbol is ignored.
func appendHeld(out []Finding, k *keyState, ignore map[string]bool, suppressed *int) []Finding {
	if !k.seen || k.dropped {
		return out
	}
	if ignored(ignore, k.f.Symbol) {
		*suppressed++
		return out
	}
	return append(out, k.f)
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
