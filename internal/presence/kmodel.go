package presence

import (
	"strings"

	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
)

// This file builds presence formulas from Kbuild and Kconfig knowledge —
// the tristate abstraction shared by the per-commit static pre-pass
// (internal/core) and the whole-tree audit (internal/audit). Every
// construction over-approximates satisfiability: opaque conditions stay
// free variables and unknown structure widens the model, so an
// unsatisfiability proof (Decide == SatNo) is always sound.

// GateFormula is the Kbuild reachability condition of a file: every gating
// variable of the Makefile descent chain and of the file's own rule must be
// enabled.
func GateFormula(kt *kconfig.Tree, g *kbuild.Gate) Formula {
	out := True
	for _, v := range g.Vars {
		out = And(out, SymbolEnabled(kt, v))
	}
	return out
}

// SymbolEnabled is the formula for "option name is y or m" in one
// architecture's tree. Undeclared options always evaluate to n.
func SymbolEnabled(kt *kconfig.Tree, name string) Formula {
	s := kt.Symbol(name)
	if s == nil {
		return False
	}
	y := Symbol("CONFIG_" + name)
	if s.Type != kconfig.TypeTristate {
		return y
	}
	return Or(y, Symbol("CONFIG_"+name+"_MODULE"))
}

// ModuleRepl resolves the MODULE macro from the file's own Kbuild rule:
// obj-m files always build modular, obj-y never, and an obj-$(CONFIG_X)
// tristate rule builds modular exactly when X is m.
func ModuleRepl(kt *kconfig.Tree, g *kbuild.Gate) func(string) (Formula, bool) {
	return func(name string) (Formula, bool) {
		if name != "defined(MODULE)" && name != "?MODULE" {
			return nil, false
		}
		switch {
		case g.OwnModule:
			return True, true
		case g.OwnVar == "":
			return False, true
		}
		if s := kt.Symbol(g.OwnVar); s != nil && s.Type == kconfig.TypeTristate {
			return Symbol("CONFIG_" + g.OwnVar + "_MODULE"), true
		}
		return False, true
	}
}

// UndeclaredKnow substitutes False for configuration symbols the
// architecture's tree does not declare — autoconf never defines their
// macros (Config.Value reports No for unknown names, so this is exact).
// CONFIG_X_MODULE variables of declared bool options are likewise False.
func UndeclaredKnow(kt *kconfig.Tree) func(string) (bool, bool) {
	return func(name string) (bool, bool) {
		if !IsConfigSymbol(name) {
			return false, false
		}
		base := strings.TrimPrefix(name, "CONFIG_")
		if kt.Symbol(base) != nil {
			return false, false
		}
		if root, ok := strings.CutSuffix(base, "_MODULE"); ok {
			if s := kt.Symbol(root); s != nil {
				if s.Type == kconfig.TypeTristate {
					return false, false // a real module variable: stays free
				}
				return false, true // bool options are never m
			}
		}
		return false, true
	}
}

// KconfigConstraints conjoins what the architecture's Kconfig tree says
// about the configuration symbols appearing in f: y and m are exclusive
// values of one option, and a symbol not forced by `select` can only be
// enabled when its `depends on` allows it. Dependency clauses are expanded
// one level — symbols they introduce stay unconstrained, which only widens
// satisfiability and therefore keeps dead proofs sound. Select targets
// (kconfig.Tree.SelectTargets) get no dependency constraint.
func KconfigConstraints(kt *kconfig.Tree, f Formula) Formula {
	selects := kt.SelectTargets()
	out := True
	syms := Symbols(f)
	present := make(map[string]bool, len(syms))
	for _, s := range syms {
		present[s] = true
	}
	for _, name := range syms {
		if !IsConfigSymbol(name) {
			continue
		}
		base := strings.TrimPrefix(name, "CONFIG_")
		root, isModuleVar := base, false
		if kt.Symbol(base) == nil {
			r, ok := strings.CutSuffix(base, "_MODULE")
			if !ok {
				continue
			}
			root, isModuleVar = r, true
		}
		s := kt.Symbol(root)
		if s == nil {
			continue
		}
		yVar := Symbol("CONFIG_" + root)
		mVar := Symbol("CONFIG_" + root + "_MODULE")
		if s.Type == kconfig.TypeTristate && !isModuleVar && present["CONFIG_"+root+"_MODULE"] {
			out = And(out, Not(And(yVar, mVar)))
		}
		if selects[root] || s.DependsOn == nil {
			continue
		}
		enabled, isYes := DependsFormulas(kt, s.DependsOn)
		switch {
		case isModuleVar:
			out = And(out, Implies(mVar, enabled))
		case s.Type == kconfig.TypeTristate:
			// The fixpoint bounds a tristate by its dependency value, so
			// reaching y needs the dependency at y.
			out = And(out, Implies(yVar, isYes))
		default:
			out = And(out, Implies(yVar, enabled))
		}
	}
	return out
}

// depAbs abstracts a tristate dependency expression into two booleans:
// "value != n" and "value == y".
type depAbs struct{ enabled, isYes Formula }

// DependsFormulas folds a `depends on` expression into the boolean domain.
// min/max/negation over {n, m, y} decompose exactly into this pair;
// =/!= comparisons become one opaque variable for both components.
func DependsFormulas(kt *kconfig.Tree, e kconfig.Expr) (enabled, isYes Formula) {
	fns := kconfig.FoldFuncs[depAbs]{
		Sym: func(name string) depAbs {
			switch name {
			case "y":
				return depAbs{True, True}
			case "m":
				return depAbs{True, False}
			case "n":
				return depAbs{False, False}
			}
			s := kt.Symbol(name)
			if s == nil {
				return depAbs{False, False}
			}
			y := Symbol("CONFIG_" + name)
			if s.Type != kconfig.TypeTristate {
				return depAbs{y, y}
			}
			return depAbs{Or(y, Symbol("CONFIG_"+name+"_MODULE")), y}
		},
		Not: func(x depAbs) depAbs {
			// y - v: != n iff v != y; == y iff v == n.
			return depAbs{Not(x.isYes), Not(x.enabled)}
		},
		And: func(l, r depAbs) depAbs {
			return depAbs{And(l.enabled, r.enabled), And(l.isYes, r.isYes)}
		},
		Or: func(l, r depAbs) depAbs {
			return depAbs{Or(l.enabled, r.enabled), Or(l.isYes, r.isYes)}
		},
		Cmp: func(l, r kconfig.Expr, ne bool) depAbs {
			op := " = "
			if ne {
				op = " != "
			}
			v := Symbol("?kconfig:" + l.String() + op + r.String())
			return depAbs{v, v}
		},
	}
	d := kconfig.FoldExpr(e, fns)
	return d.enabled, d.isYes
}

// ArchFormula assembles the full satisfiability query for a source
// condition under one architecture: cond ∧ Kbuild gate (with MODULE
// resolved from the rule), undeclared symbols fixed to n, and the Kconfig
// constraints over every symbol that remains. gate may be nil for
// ungated files (headers). The result feeds Decide: SatNo proves the
// condition can hold in no configuration of this architecture.
func ArchFormula(kt *kconfig.Tree, cond Formula, gate *kbuild.Gate) Formula {
	f := cond
	if gate != nil {
		f = And(f, GateFormula(kt, gate))
		f = Replace(f, ModuleRepl(kt, gate))
	}
	f = Substitute(f, UndeclaredKnow(kt))
	return And(f, KconfigConstraints(kt, f))
}
