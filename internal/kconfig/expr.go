// Package kconfig implements a subset of the Linux kernel's Kconfig
// configuration language: bool and tristate symbols with prompts,
// `depends on` and `select` with conditions, defaults, `source` inclusion,
// and `if` blocks — plus the configuration strategies JMake relies on:
// allyesconfig, allmodconfig, and defconfig resolution (paper §II-B).
//
// A Parser parses each file content once into an immutable record and
// links trees from the records, so the architectures of one source tree,
// which source the same shared files, share those parses and the symbols
// declared in them. Parse is a fresh Parser's Parse.
package kconfig

import "fmt"

// Value is a tristate configuration value. The ordering No < Mod < Yes is
// semantic: && is min and || is max.
type Value int

// Tristate values.
const (
	No  Value = 0
	Mod Value = 1
	Yes Value = 2
)

func (v Value) String() string {
	switch v {
	case Yes:
		return "y"
	case Mod:
		return "m"
	default:
		return "n"
	}
}

// Expr is a Kconfig dependency expression.
type Expr interface {
	// Eval computes the tristate value of the expression given a symbol
	// valuation.
	Eval(get func(name string) Value) Value
	// Symbols appends the names referenced by the expression.
	Symbols(into []string) []string
	// WantsFor records, for each referenced symbol, the value that pushes
	// the whole expression toward target (used by coverage-configuration
	// synthesis: to satisfy `FOO && !BAR`, want FOO=target and BAR=!target).
	WantsFor(target Value, into map[string]Value)
	String() string
}

type symRef struct{ name string }

func (e symRef) Eval(get func(string) Value) Value {
	switch e.name {
	case "y":
		return Yes
	case "m":
		return Mod
	case "n":
		return No
	}
	return get(e.name)
}
func (e symRef) Symbols(into []string) []string {
	if e.name == "y" || e.name == "m" || e.name == "n" {
		return into
	}
	return append(into, e.name)
}
func (e symRef) WantsFor(target Value, into map[string]Value) {
	if e.name == "y" || e.name == "m" || e.name == "n" {
		return
	}
	into[e.name] = target
}
func (e symRef) String() string { return e.name }

type notExpr struct{ x Expr }

func (e notExpr) Eval(get func(string) Value) Value { return Yes - e.x.Eval(get) }
func (e notExpr) Symbols(into []string) []string    { return e.x.Symbols(into) }
func (e notExpr) WantsFor(target Value, into map[string]Value) {
	e.x.WantsFor(Yes-target, into)
}
func (e notExpr) String() string { return "!" + e.x.String() }

type andExpr struct{ l, r Expr }

func (e andExpr) Eval(get func(string) Value) Value {
	l, r := e.l.Eval(get), e.r.Eval(get)
	if l < r {
		return l
	}
	return r
}
func (e andExpr) Symbols(into []string) []string {
	return e.r.Symbols(e.l.Symbols(into))
}
func (e andExpr) WantsFor(target Value, into map[string]Value) {
	e.l.WantsFor(target, into)
	e.r.WantsFor(target, into)
}
func (e andExpr) String() string { return "(" + e.l.String() + " && " + e.r.String() + ")" }

type orExpr struct{ l, r Expr }

func (e orExpr) Eval(get func(string) Value) Value {
	l, r := e.l.Eval(get), e.r.Eval(get)
	if l > r {
		return l
	}
	return r
}
func (e orExpr) Symbols(into []string) []string {
	return e.r.Symbols(e.l.Symbols(into))
}
func (e orExpr) WantsFor(target Value, into map[string]Value) {
	// Satisfying either side suffices; drive both toward the target, which
	// is conservative but sound for coverage purposes.
	e.l.WantsFor(target, into)
	e.r.WantsFor(target, into)
}
func (e orExpr) String() string { return "(" + e.l.String() + " || " + e.r.String() + ")" }

type cmpExpr struct {
	l, r Expr
	ne   bool
}

func (e cmpExpr) Eval(get func(string) Value) Value {
	eq := e.l.Eval(get) == e.r.Eval(get)
	if eq != e.ne {
		return Yes
	}
	return No
}
func (e cmpExpr) Symbols(into []string) []string {
	return e.r.Symbols(e.l.Symbols(into))
}
func (e cmpExpr) WantsFor(target Value, into map[string]Value) {
	// Equality tests do not yield simple per-symbol wants; skip them.
}
func (e cmpExpr) String() string {
	op := "="
	if e.ne {
		op = "!="
	}
	return e.l.String() + op + e.r.String()
}

// ParseExpr parses a Kconfig dependency expression: identifiers, the y/m/n
// literals, !, &&, ||, =, != and parentheses.
func ParseExpr(s string) (Expr, error) {
	p := &exprParser{toks: lexExpr(s)}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.toks) {
		return nil, fmt.Errorf("kconfig: trailing %q in expression %q", p.toks[p.pos], s)
	}
	return e, nil
}

func lexExpr(s string) []string {
	var out []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '!' && i+1 < len(s) && s[i+1] == '=':
			out = append(out, "!=")
			i += 2
		case c == '!' || c == '(' || c == ')' || c == '=':
			out = append(out, string(c))
			i++
		case c == '&' && i+1 < len(s) && s[i+1] == '&':
			out = append(out, "&&")
			i += 2
		case c == '|' && i+1 < len(s) && s[i+1] == '|':
			out = append(out, "||")
			i += 2
		default:
			j := i
			for j < len(s) && (s[j] == '_' || s[j] >= 'a' && s[j] <= 'z' ||
				s[j] >= 'A' && s[j] <= 'Z' || s[j] >= '0' && s[j] <= '9') {
				j++
			}
			if j == i {
				out = append(out, string(c))
				i++
			} else {
				out = append(out, s[i:j])
				i = j
			}
		}
	}
	return out
}

type exprParser struct {
	toks []string
	pos  int
}

func (p *exprParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.pos < len(p.toks) && p.toks[p.pos] == "||" {
		p.pos++
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = orExpr{l, r}
	}
	return l, nil
}

func (p *exprParser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.pos < len(p.toks) && p.toks[p.pos] == "&&" {
		p.pos++
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = andExpr{l, r}
	}
	return l, nil
}

func (p *exprParser) parseCmp() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.toks) && (p.toks[p.pos] == "=" || p.toks[p.pos] == "!=") {
		op := p.toks[p.pos]
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return cmpExpr{l, r, op == "!="}, nil
	}
	return l, nil
}

func (p *exprParser) parseUnary() (Expr, error) {
	if p.pos >= len(p.toks) {
		return nil, fmt.Errorf("kconfig: unexpected end of expression")
	}
	t := p.toks[p.pos]
	switch t {
	case "!":
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{x}, nil
	case "(":
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.pos >= len(p.toks) || p.toks[p.pos] != ")" {
			return nil, fmt.Errorf("kconfig: missing ')' in expression")
		}
		p.pos++
		return e, nil
	case ")", "&&", "||", "=", "!=":
		return nil, fmt.Errorf("kconfig: unexpected %q in expression", t)
	default:
		p.pos++
		return symRef{t}, nil
	}
}

// isIdentText reports whether s is a plain identifier (used by the lexer's
// callers to validate symbol names).
func isIdentText(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}
