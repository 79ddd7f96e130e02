package kconfig

// FoldFuncs supplies one constructor per dependency-expression node shape
// for FoldExpr. Sym also receives the y/m/n tristate literals, spelled
// exactly as in the Kconfig source.
type FoldFuncs[T any] struct {
	Sym func(name string) T
	Not func(x T) T
	And func(l, r T) T
	Or  func(l, r T) T
	// Cmp handles =/!= tests; the operand expressions are passed unfolded
	// because their comparison semantics (string/tristate equality) do not
	// decompose through the boolean constructors.
	Cmp func(l, r Expr, ne bool) T
}

// FoldExpr maps a `depends on` expression bottom-up into another domain —
// the presence-condition layer uses it to turn dependency expressions into
// boolean formulas without this package exporting its AST node types.
func FoldExpr[T any](e Expr, fns FoldFuncs[T]) T {
	switch n := e.(type) {
	case symRef:
		return fns.Sym(n.name)
	case notExpr:
		return fns.Not(FoldExpr(n.x, fns))
	case andExpr:
		return fns.And(FoldExpr(n.l, fns), FoldExpr(n.r, fns))
	case orExpr:
		return fns.Or(FoldExpr(n.l, fns), FoldExpr(n.r, fns))
	case cmpExpr:
		return fns.Cmp(n.l, n.r, n.ne)
	}
	// Future node kinds degrade to an opaque comparison over themselves.
	return fns.Cmp(e, e, false)
}

// DependsClosure returns the `depends on` expression of name and of every
// symbol those dependencies mention, transitively, up to maxDepth levels of
// indirection (0 collects only name's own clause). Symbols without a clause
// and undeclared names contribute nothing; the y/m/n literals are skipped.
func (t *Tree) DependsClosure(name string, maxDepth int) map[string]Expr {
	out := make(map[string]Expr)
	frontier := []string{name}
	for depth := 0; depth <= maxDepth && len(frontier) > 0; depth++ {
		var next []string
		for _, n := range frontier {
			if _, seen := out[n]; seen {
				continue
			}
			s := t.Symbol(n)
			if s == nil || s.DependsOn == nil {
				continue
			}
			out[n] = s.DependsOn
			for _, ref := range s.DependsOn.Symbols(nil) {
				switch ref {
				case "y", "m", "n":
					continue
				}
				next = append(next, ref)
			}
		}
		frontier = next
	}
	return out
}

// SelectTargets returns the set of symbols forced by any `select` clause in
// the tree. The fixpoint raises select targets regardless of their own
// dependencies, so consumers that turn `depends on` into hard constraints
// must exempt these symbols or they would wrongly prove lines dead. Parse
// builds the set once; it is shared, so callers must not modify it.
func (t *Tree) SelectTargets() map[string]bool { return t.selected }
