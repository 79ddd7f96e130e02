package audit

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/kernelgen"
	"jmake/internal/presence"
)

// The reference symbol pass below is the one the audit ran before it
// decided each check only while a finding was still possible: every
// architecture derives and decides every check of every symbol it
// declares, and the aggregate demands flagged == applicable. Findings,
// representatives and suppressions must not move; only the count of
// give-ups may, because the candidate-only pass never runs the checks
// that could no longer become findings.

// refIssue is one per-arch flag, keyed for cross-arch aggregation.
type refIssue struct {
	key string
	f   Finding
}

type refAgg struct {
	applicable, flagged int
	f                   Finding
	has                 bool
}

// referenceCheckSymbols runs the dead-symbol, chain-contradiction, and
// select-vs-depends checks over every architecture and aggregates.
func referenceCheckSymbols(arches []*archCtx, _, ignore map[string]bool, suppressed *int) ([]Finding, int) {
	aggs := make(map[string]*refAgg)
	get := func(key string) *refAgg {
		a := aggs[key]
		if a == nil {
			a = &refAgg{}
			aggs[key] = a
		}
		return a
	}
	unknown := 0
	for _, ac := range arches {
		flagged, applicable, unk := referenceCheckArchSymbols(ac)
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

// referenceCheckArchSymbols runs the three symbol checks in one architecture.
// applicable records every check key that could have fired here, so the
// aggregator can demand unanimity across declaring architectures.
func referenceCheckArchSymbols(ac *archCtx) (flagged []refIssue, applicable map[string]bool, unknown int) {
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
				flagged = append(flagged, refIssue{deadKey, Finding{
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
				flagged = append(flagged, refIssue{chainKey, Finding{
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
				flagged = append(flagged, refIssue{selKey, Finding{
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

// reportJSON audits tree with the given symbol pass and returns the JSON.
func reportJSON(t *testing.T, tree *fstree.Tree, ignore map[string]bool, pass symbolPass) []byte {
	t.Helper()
	rep, err := run(Params{Tree: tree, Ignore: ignore}, pass)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// multiArchTree declares symbols that three architectures judge
// differently: TWICE is dead in every architecture that declares it, each
// in its own Kconfig, so its representative is arch/a's; SPLIT is dead in a
// and c but alive in b, and LIVE_A alive in a but dead in b, so neither is
// a finding; CHA's chain is contradictory in a, but in b its own clause is
// unsatisfiable, which skips the chain check there, so it is no finding
// either; FORCER's select conflict holds everywhere and FORCER_B's in the
// one architecture that declares it.
func multiArchTree() *fstree.Tree {
	t := fstree.New()
	t.Write("Kconfig.common", `config FLIP
	bool "flip"

config GUARD
	bool "guard"

config WANTS_GUARD
	bool "wants guard"
	depends on GUARD

config FORCER
	bool "forcer"
	depends on !GUARD
	select WANTS_GUARD
`)
	dead := func(name string) string {
		return "config " + name + "\n\tbool \"" + name + "\"\n\tdepends on FLIP && !FLIP\n\n"
	}
	alive := func(name string) string {
		return "config " + name + "\n\tbool \"" + name + "\"\n\tdepends on FLIP\n\n"
	}
	const src = "source \"Kconfig.common\"\n\n"
	t.Write("arch/a/Kconfig", src+dead("TWICE")+dead("SPLIT")+alive("LIVE_A")+`config CHA
	bool "cha"
	depends on CHB

config CHB
	bool "chb"
	depends on !CHA
`)
	t.Write("arch/b/Kconfig", src+dead("TWICE")+alive("SPLIT")+dead("LIVE_A")+dead("CHA")+`config FORCER_B
	bool "forcer b"
	depends on !GUARD
	select WANTS_GUARD
`)
	t.Write("arch/c/Kconfig", src+dead("SPLIT"))
	return t
}

// TestCandidateChecksMatchReference pins the candidate-only symbol pass to
// the every-architecture reference: on generated trees with injected
// mismatches, with and without their audit baseline, and on the
// fixture corpora, the report JSON is byte-identical.
func TestCandidateChecksMatchReference(t *testing.T) {
	type corpus struct {
		name   string
		tree   *fstree.Tree
		ignore map[string]bool
	}
	corpora := []corpus{
		{name: "fixture", tree: fixtureTree()},
		{name: "multi-arch", tree: multiArchTree()},
		{name: "multi-arch-baseline", tree: multiArchTree(), ignore: map[string]bool{"TWICE": true}},
	}
	if tree, err := fstree.LoadDir(filepath.Join("..", "..", "examples", "audit", "src")); err == nil {
		corpora = append(corpora, corpus{name: "examples/audit", tree: tree})
	} else {
		t.Fatalf("corpus missing: %v", err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, scale := range []float64{0.12, 0.25} {
			tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: seed, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := kernelgen.InjectMismatches(tree, seed, 12); err != nil {
				t.Fatal(err)
			}
			base := make(map[string]bool)
			for _, s := range man.AuditBaseline {
				base[s] = true
			}
			name := fmt.Sprintf("seed%d-scale%.2f", seed, scale)
			corpora = append(corpora, corpus{name: name, tree: tree}, corpus{name: name + "-baseline", tree: tree, ignore: base})
		}
	}
	for _, c := range corpora {
		got := reportJSON(t, c.tree, c.ignore, checkSymbols)
		want := reportJSON(t, c.tree, c.ignore, referenceCheckSymbols)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report differs from the every-architecture reference\n--- got ---\n%s--- want ---\n%s", c.name, got, want)
		}
	}

	// The multi-arch fixture exercises what the generated trees do not:
	// unanimity across architectures that disagree, and the
	// representative of a finding declared in several files.
	rep, err := Run(Params{Tree: multiArchTree()})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.Findings {
		got = append(got, string(f.Category)+" "+f.Symbol+" "+f.File)
	}
	want := []string{
		"dead-symbol TWICE arch/a/Kconfig",
		"contradiction FORCER Kconfig.common",
		"contradiction FORCER_B arch/b/Kconfig",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("multi-arch findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestUnknownCountsRunChecksOnly pins the one change in meaning of the
// candidate-only pass: unknown counts the give-ups among the checks the
// audit ran. WIDE depends on a disjunction of 21 symbols, past the
// enumeration bound, so in the first architecture both its dead-symbol
// and its chain check give up; neither can then become a finding, so the
// second architecture decides neither. The reference, which checks every
// architecture, counts 4.
func TestUnknownCountsRunChecksOnly(t *testing.T) {
	var wide strings.Builder
	var deps []string
	for i := 0; i <= presence.MaxSatSymbols; i++ {
		fmt.Fprintf(&wide, "config W%d\n\tbool \"w%d\"\n\n", i, i)
		deps = append(deps, fmt.Sprintf("W%d", i))
	}
	fmt.Fprintf(&wide, "config WIDE\n\tbool \"wide\"\n\tdepends on %s\n", strings.Join(deps, " || "))
	tree := fstree.New()
	tree.Write("Kconfig.wide", wide.String())
	for _, arch := range []string{"a", "b"} {
		tree.Write("arch/"+arch+"/Kconfig", "source \"Kconfig.wide\"\n")
	}
	for _, tc := range []struct {
		name    string
		pass    symbolPass
		unknown int
	}{{"candidate-only", checkSymbols, 2}, {"reference", referenceCheckSymbols, 4}} {
		rep, err := run(Params{Tree: tree}, tc.pass)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Arches) != 2 {
			t.Fatalf("%s: arches = %v, want two", tc.name, rep.Arches)
		}
		if rep.Unknown != tc.unknown {
			t.Errorf("%s: unknown = %d, want %d", tc.name, rep.Unknown, tc.unknown)
		}
		if len(rep.Findings) != 0 {
			t.Errorf("%s: a give-up produced findings:\n%s", tc.name, rep.Text())
		}
	}
}
