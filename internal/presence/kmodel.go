package presence

import (
	"slices"
	"strings"
	"sync"

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

// Model is one architecture's Kconfig tree with the formulas derived from
// it memoized: each symbol's DependsFormulas pair, and each configuration
// variable's KconfigConstraints terms. The memo is keyed per architecture,
// not per declaration: a declaration that architectures share folds
// differently in each, since `depends on X86 || ARM` loses the operand an
// architecture does not declare. A Model is safe for concurrent use; make
// one with NewModel.
type Model struct {
	kt *kconfig.Tree

	mu   sync.Mutex
	deps map[string]depAbs  // by symbol name
	vars map[string]varInfo // by formula variable
}

// varInfo is what the architecture's Kconfig says about one formula
// variable.
type varInfo struct {
	// exclusive is !(CONFIG_X && CONFIG_X_MODULE) for the y variable of a
	// tristate X, conjoined when the formula also holds modVar.
	exclusive Formula
	modVar    string
	// dep is the variable's dependency implication, nil when its option
	// has no `depends on` or is a select target.
	dep Formula
}

// NewModel returns an empty memo over one architecture's tree.
func NewModel(kt *kconfig.Tree) *Model {
	return &Model{kt: kt, deps: make(map[string]depAbs), vars: make(map[string]varInfo)}
}

// DependsOf is DependsFormulas of the named symbol's `depends on`, which
// must be declared with one.
func (m *Model) DependsOf(name string) (enabled, isYes Formula) {
	m.mu.Lock()
	d, ok := m.deps[name]
	m.mu.Unlock()
	if !ok {
		d.enabled, d.isYes = DependsFormulas(m.kt, m.kt.Symbol(name).DependsOn)
		m.mu.Lock()
		m.deps[name] = d
		m.mu.Unlock()
	}
	return d.enabled, d.isYes
}

// info returns what the tree says about one formula variable.
func (m *Model) info(name string) varInfo {
	if !IsConfigSymbol(name) {
		return varInfo{}
	}
	m.mu.Lock()
	vi, ok := m.vars[name]
	m.mu.Unlock()
	if !ok {
		vi = m.varInfo(name)
		m.mu.Lock()
		m.vars[name] = vi
		m.mu.Unlock()
	}
	return vi
}

// varInfo computes info's answer for a configuration variable.
func (m *Model) varInfo(name string) varInfo {
	kt := m.kt
	var vi varInfo
	base := strings.TrimPrefix(name, "CONFIG_")
	root, isModuleVar := base, false
	if kt.Symbol(base) == nil {
		r, ok := strings.CutSuffix(base, "_MODULE")
		if !ok {
			return vi
		}
		root, isModuleVar = r, true
	}
	s := kt.Symbol(root)
	if s == nil {
		return vi
	}
	yVar := Symbol("CONFIG_" + root)
	mVar := Symbol("CONFIG_" + root + "_MODULE")
	if s.Type == kconfig.TypeTristate && !isModuleVar {
		vi.exclusive, vi.modVar = Not(And(yVar, mVar)), "CONFIG_"+root+"_MODULE"
	}
	if kt.SelectTargets()[root] || s.DependsOn == nil {
		return vi
	}
	enabled, isYes := m.DependsOf(root)
	switch {
	case isModuleVar:
		vi.dep = Implies(mVar, enabled)
	case s.Type == kconfig.TypeTristate:
		// The fixpoint bounds a tristate by its dependency value, so
		// reaching y needs the dependency at y.
		vi.dep = Implies(yVar, isYes)
	default:
		vi.dep = Implies(yVar, enabled)
	}
	return vi
}

// KconfigConstraints conjoins what the architecture's Kconfig tree says
// about the configuration symbols appearing in f: y and m are exclusive
// values of one option, and a symbol not forced by `select` can only be
// enabled when its `depends on` allows it. Dependency clauses are expanded
// one level — symbols they introduce stay unconstrained, which only widens
// satisfiability and therefore keeps dead proofs sound. Select targets
// (kconfig.Tree.SelectTargets) get no dependency constraint.
func (m *Model) KconfigConstraints(f Formula) Formula {
	out := True
	syms := Symbols(f)
	for _, name := range syms {
		vi := m.info(name)
		if vi.exclusive != nil {
			if _, present := slices.BinarySearch(syms, vi.modVar); present {
				out = And(out, vi.exclusive)
			}
		}
		if vi.dep != nil {
			out = And(out, vi.dep)
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
// condition under the model's architecture: cond ∧ Kbuild gate (with
// MODULE resolved from the rule), undeclared symbols fixed to n, and the
// Kconfig constraints over every symbol that remains. gate may be nil for
// ungated files (headers). The result feeds Decide: SatNo proves the
// condition can hold in no configuration of this architecture.
func (m *Model) ArchFormula(cond Formula, gate *kbuild.Gate) Formula {
	f := cond
	if gate != nil {
		f = And(f, GateFormula(m.kt, gate))
		f = Replace(f, ModuleRepl(m.kt, gate))
	}
	f = Substitute(f, UndeclaredKnow(m.kt))
	return And(f, m.KconfigConstraints(f))
}
