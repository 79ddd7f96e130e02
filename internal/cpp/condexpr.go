package cpp

import (
	"fmt"
	"strconv"
	"strings"
)

// This file holds the one #if expression grammar. ParseCondExpr keeps
// `defined(NAME)` operators and identifiers as leaves, so static consumers
// — presence-condition analysis, escape classification — can reason about
// a controlling expression over an unknown configuration, where "is
// CONFIG_FOO defined" is a free variable rather than a fact. The
// preprocessor parses its macro-expanded tokens with the same parser and
// evaluates the tree against the current macro table (expr.go).

// CondExpr is one node of a symbolically parsed #if/#elif controlling
// expression.
type CondExpr interface {
	String() string
	condExpr()
}

// CondNum is an integer literal; character constants fold to their values.
type CondNum struct{ Val int64 }

// CondDefined is a `defined(NAME)` or `defined NAME` operator.
type CondDefined struct{ Name string }

// CondIdent is a bare identifier: a macro whose expansion is unknown at
// parse time (the dynamic evaluator would expand it, or fold it to 0).
type CondIdent struct{ Name string }

// CondUnary is !x, ~x, -x or +x.
type CondUnary struct {
	Op string
	X  CondExpr
}

// CondBinary is a binary operator application.
type CondBinary struct {
	Op   string
	L, R CondExpr
}

// CondTernary is c ? t : f.
type CondTernary struct{ C, T, F CondExpr }

func (CondNum) condExpr()     {}
func (CondDefined) condExpr() {}
func (CondIdent) condExpr()   {}
func (CondUnary) condExpr()   {}
func (CondBinary) condExpr()  {}
func (CondTernary) condExpr() {}

func (e CondNum) String() string     { return strconv.FormatInt(e.Val, 10) }
func (e CondDefined) String() string { return "defined(" + e.Name + ")" }
func (e CondIdent) String() string   { return e.Name }
func (e CondUnary) String() string   { return e.Op + e.X.String() }
func (e CondBinary) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}
func (e CondTernary) String() string {
	return "(" + e.C.String() + " ? " + e.T.String() + " : " + e.F.String() + ")"
}

// ParseCondExpr parses the argument of a #if or #elif symbolically. It
// never panics: malformed input yields an error.
func ParseCondExpr(src string) (CondExpr, error) {
	e, err := parseCondTokens(Lex(src))
	if err != nil {
		return nil, fmt.Errorf("cpp: %w", err)
	}
	return e, nil
}

// parseCondTokens parses one whole controlling expression. Its errors
// carry no package prefix: ParseCondExpr adds one, the preprocessor adds
// the directive's position instead.
func parseCondTokens(ts []Token) (CondExpr, error) {
	p := &condParser{ts: ts}
	e, err := p.ternary()
	if err != nil {
		return nil, err
	}
	if t, ok := p.peek(); ok {
		return nil, fmt.Errorf("unexpected token %q in #if expression", t.Text)
	}
	return e, nil
}

// condParser is a precedence-climbing parser producing CondExpr trees.
type condParser struct {
	ts  []Token
	pos int
}

func (p *condParser) peek() (Token, bool) {
	if p.pos < len(p.ts) {
		return p.ts[p.pos], true
	}
	return Token{}, false
}

func (p *condParser) next() (Token, bool) {
	t, ok := p.peek()
	if ok {
		p.pos++
	}
	return t, ok
}

func (p *condParser) ternary() (CondExpr, error) {
	cond, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	t, ok := p.peek()
	if !ok || t.Kind != KindPunct || t.Text != "?" {
		return cond, nil
	}
	p.pos++
	thenE, err := p.ternary()
	if err != nil {
		return nil, err
	}
	t, ok = p.next()
	if !ok || t.Text != ":" {
		return nil, fmt.Errorf("missing ':' in ternary expression")
	}
	elseE, err := p.ternary()
	if err != nil {
		return nil, err
	}
	return CondTernary{C: cond, T: thenE, F: elseE}, nil
}

// binPrec maps binary operators to precedence; higher binds tighter.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *condParser) binary(minPrec int) (CondExpr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t, ok := p.peek()
		if !ok || t.Kind != KindPunct {
			return lhs, nil
		}
		prec, isOp := binPrec[t.Text]
		if !isOp || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = CondBinary{Op: t.Text, L: lhs, R: rhs}
	}
}

func (p *condParser) unary() (CondExpr, error) {
	t, ok := p.next()
	if !ok {
		return nil, fmt.Errorf("unexpected end of #if expression")
	}
	switch t.Kind {
	case KindPunct:
		switch t.Text {
		case "!", "~", "-", "+":
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return CondUnary{Op: t.Text, X: x}, nil
		case "(":
			v, err := p.ternary()
			if err != nil {
				return nil, err
			}
			nt, ok := p.next()
			if !ok || nt.Text != ")" {
				return nil, fmt.Errorf("missing ')' in #if expression")
			}
			return v, nil
		}
	case KindNumber:
		v, err := ppNumberValue(t.Text)
		if err != nil {
			return nil, err
		}
		return CondNum{Val: v}, nil
	case KindChar:
		v, err := charConstValue(t.Text)
		if err != nil {
			return nil, err
		}
		return CondNum{Val: v}, nil
	case KindIdent:
		if t.Text == "defined" {
			return p.definedOp()
		}
		return CondIdent{Name: t.Text}, nil
	}
	return nil, fmt.Errorf("unexpected token %q in #if expression", t.Text)
}

func (p *condParser) definedOp() (CondExpr, error) {
	t, ok := p.next()
	if !ok {
		return nil, fmt.Errorf("operator \"defined\" requires an identifier")
	}
	paren := false
	if t.Kind == KindPunct && t.Text == "(" {
		paren = true
		t, ok = p.next()
		if !ok {
			return nil, fmt.Errorf("operator \"defined\" requires an identifier")
		}
	}
	if t.Kind != KindIdent {
		return nil, fmt.Errorf("operator \"defined\" requires an identifier")
	}
	name := t.Text
	if paren {
		nt, ok := p.next()
		if !ok || nt.Text != ")" {
			return nil, fmt.Errorf("missing ')' after \"defined\"")
		}
	}
	return CondDefined{Name: name}, nil
}

// PriorBranch names one earlier branch of the same conditional chain, for
// BranchCondExpr. Kind is the directive name: "if", "ifdef", "ifndef" or
// "elif".
type PriorBranch struct {
	Kind string
	Arg  string
}

// BranchCondExpr builds the full controlling condition of one branch of an
// #if/#elif/#else chain: the branch's own test (none for "else") conjoined
// with the negation of every earlier branch's test. The dynamic
// preprocessor implements exactly this with its `taken` flag; static
// consumers need it spelled out, otherwise an #elif or #else branch is
// evaluated in isolation and its condition over-approximates badly (an
// `#elif defined(B)` after `#ifdef A` is active only under !A && B).
func BranchCondExpr(kind, arg string, prior []PriorBranch) (CondExpr, error) {
	var parts []CondExpr
	for _, pb := range prior {
		own, err := openingCondExpr(pb.Kind, pb.Arg)
		if err != nil {
			return nil, err
		}
		parts = append(parts, CondUnary{Op: "!", X: own})
	}
	if kind != "else" {
		own, err := openingCondExpr(kind, arg)
		if err != nil {
			return nil, err
		}
		parts = append(parts, own)
	}
	if len(parts) == 0 {
		return CondNum{Val: 1}, nil
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = CondBinary{Op: "&&", L: out, R: p}
	}
	return out, nil
}

// openingCondExpr is the condition under which one directive's own test
// holds, ignoring the rest of its chain.
func openingCondExpr(kind, arg string) (CondExpr, error) {
	switch kind {
	case "if", "elif":
		return ParseCondExpr(arg)
	case "ifdef":
		name, err := identArg(kind, arg)
		if err != nil {
			return nil, err
		}
		return CondDefined{Name: name}, nil
	case "ifndef":
		name, err := identArg(kind, arg)
		if err != nil {
			return nil, err
		}
		return CondUnary{Op: "!", X: CondDefined{Name: name}}, nil
	}
	return nil, fmt.Errorf("cpp: %q is not a conditional directive", kind)
}

// identArg extracts the single identifier argument of #ifdef/#ifndef.
// Trailing tokens are tolerated (stray comment remnants), a missing or
// non-identifier argument is not.
func identArg(kind, arg string) (string, error) {
	ts := Lex(arg)
	if len(ts) == 0 || ts[0].Kind != KindIdent {
		return "", fmt.Errorf("cpp: #%s requires an identifier, got %q", kind, arg)
	}
	return ts[0].Text, nil
}

// ppNumberValue converts a pp-number to int64, accepting 0x/octal forms and
// ignoring integer suffixes (u, l, ll, in any case and order).
func ppNumberValue(s string) (int64, error) {
	trimmed := strings.TrimRight(s, "uUlL")
	if trimmed == "" {
		return 0, fmt.Errorf("bad integer %q in #if expression", s)
	}
	v, err := strconv.ParseUint(trimmed, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q in #if expression", s)
	}
	return int64(v), nil
}

// charConstValue evaluates a character constant like 'a' or '\n'.
func charConstValue(s string) (int64, error) {
	if len(s) < 3 || s[0] != '\'' || s[len(s)-1] != '\'' {
		return 0, fmt.Errorf("bad character constant %s", s)
	}
	body := s[1 : len(s)-1]
	if body[0] != '\\' {
		return int64(body[0]), nil
	}
	if len(body) < 2 {
		return 0, fmt.Errorf("bad escape in character constant %s", s)
	}
	switch body[1] {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	default:
		return int64(body[1]), nil
	}
}
