package cpp

// evalCondition evaluates a #if / #elif controlling expression: `defined`
// is resolved first, remaining tokens are macro-expanded, and the result
// is parsed by the same grammar ParseCondExpr uses and evaluated as a C
// integer constant expression. Parsing and evaluation are separate passes
// so that && / || / ?: short-circuit properly: a division by zero in an
// untaken branch is not an error, matching gcc.
func (p *pp) evalCondition(ts []Token) (bool, error) {
	resolved, err := p.resolveDefined(ts)
	if err != nil {
		return false, err
	}
	p.inCond = true
	expanded, err := p.expandTokens(resolved)
	p.inCond = false
	if err != nil {
		return false, err
	}
	e, err := parseCondTokens(expanded)
	if err != nil {
		return false, p.errf("%v", err)
	}
	v, err := p.evalCond(e)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// resolveDefined replaces `defined NAME` and `defined(NAME)` with 1 or 0
// before macro expansion, as the standard requires.
func (p *pp) resolveDefined(ts []Token) ([]Token, error) {
	var out []Token
	for i := 0; i < len(ts); i++ {
		t := ts[i]
		if t.Kind != KindIdent || t.Text != "defined" {
			out = append(out, t)
			continue
		}
		i++
		paren := false
		if i < len(ts) && ts[i].Kind == KindPunct && ts[i].Text == "(" {
			paren = true
			i++
		}
		if i >= len(ts) || ts[i].Kind != KindIdent {
			return nil, p.errf("operator \"defined\" requires an identifier")
		}
		name := ts[i].Text
		if paren {
			i++
			if i >= len(ts) || ts[i].Kind != KindPunct || ts[i].Text != ")" {
				return nil, p.errf("missing ')' after \"defined\"")
			}
		}
		val := "0"
		if _, ok := p.macroFor(name); ok {
			val = "1"
		}
		out = append(out, Token{Kind: KindNumber, Text: val, WS: t.WS})
	}
	return out, nil
}

// evalCond evaluates a parsed, fully expanded controlling expression.
// Identifiers left after expansion are 0; a `defined` that macro
// expansion produced tests the macro table, as gcc does.
func (p *pp) evalCond(e CondExpr) (int64, error) {
	switch n := e.(type) {
	case CondNum:
		return n.Val, nil
	case CondIdent:
		return 0, nil
	case CondDefined:
		_, ok := p.macroFor(n.Name)
		return btoi(ok), nil
	case CondUnary:
		v, err := p.evalCond(n.X)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case "!":
			return btoi(v == 0), nil
		case "~":
			return ^v, nil
		case "-":
			return -v, nil
		}
		return v, nil
	case CondTernary:
		c, err := p.evalCond(n.C)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return p.evalCond(n.T)
		}
		return p.evalCond(n.F)
	case CondBinary:
		return p.evalBinary(n)
	}
	return 0, p.errf("unknown #if expression node %T", e)
}

func (p *pp) evalBinary(b CondBinary) (int64, error) {
	l, err := p.evalCond(b.L)
	if err != nil {
		return 0, err
	}
	// Short-circuit: the right operand of && / || is only evaluated when it
	// can affect the result.
	switch {
	case b.Op == "&&" && l == 0:
		return 0, nil
	case b.Op == "||" && l != 0:
		return 1, nil
	}
	r, err := p.evalCond(b.R)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case "&&", "||":
		return btoi(r != 0), nil
	case "|":
		return l | r, nil
	case "^":
		return l ^ r, nil
	case "&":
		return l & r, nil
	case "==":
		return btoi(l == r), nil
	case "!=":
		return btoi(l != r), nil
	case "<":
		return btoi(l < r), nil
	case ">":
		return btoi(l > r), nil
	case "<=":
		return btoi(l <= r), nil
	case ">=":
		return btoi(l >= r), nil
	case "<<":
		return l << (uint64(r) & 63), nil
	case ">>":
		return l >> (uint64(r) & 63), nil
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/", "%":
		if r == 0 {
			return 0, p.errf("division by zero in #if expression")
		}
		if b.Op == "/" {
			return l / r, nil
		}
		return l % r, nil
	}
	return 0, p.errf("unknown operator %q", b.Op)
}

func btoi(x bool) int64 {
	if x {
		return 1
	}
	return 0
}
