// Package cpp implements a C preprocessor sufficient to generate .i files
// from kernel-style sources: object/function/variadic macros with # and ##,
// the full conditional-directive family with constant-expression
// evaluation, includes with search paths, and gcc-style line markers.
//
// JMake (paper §III-A) relies on two preprocessor properties that this
// package reproduces faithfully: (1) tokens that are invalid in C proper —
// such as the '@' in JMake's mutation strings — pass through preprocessing
// untouched, and (2) text inside a macro body surfaces in the .i file at
// the macro's *use* sites, not its definition site.
package cpp

import "strings"

// Kind classifies a preprocessing token.
type Kind uint8

// Token kinds. KindOther covers characters outside the C source character
// set (e.g. '@', '$', '`'), which a conforming preprocessor must preserve.
const (
	KindIdent Kind = iota + 1
	KindNumber
	KindString
	KindChar
	KindPunct
	KindOther
)

// Token is one preprocessing token. Its fields are ordered so that a
// Token is 32 bytes on 64-bit hosts: token slices are the bulk of what
// the preprocessor and the compiler front end allocate.
type Token struct {
	Kind Kind
	WS   bool // preceded by whitespace (controls spacing in output)
	Text string
	hide *hideSet
}

// hideSet is an immutable set of macro names, linked from the newest
// name. Tokens share sets: adding a name makes a new head over the old
// set and never writes to a set another token may hold.
type hideSet struct {
	name string
	next *hideSet
}

// has reports whether name is in the set.
func (h *hideSet) has(name string) bool {
	for ; h != nil; h = h.next {
		if h.name == name {
			return true
		}
	}
	return false
}

// with returns the set plus name, sharing h.
func (h *hideSet) with(name string) *hideSet {
	if h.has(name) {
		return h
	}
	return &hideSet{name: name, next: h}
}

// hidden reports whether macro name is in the token's hide set, i.e. the
// token was produced by an expansion of that macro and must not trigger it
// again.
func (t Token) hidden(name string) bool { return t.hide.has(name) }

// isIdentStart and isIdentCont define C identifier characters.
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r' }

// Lex splits one logical line into preprocessing tokens. It never fails:
// unknown characters become KindOther tokens and unterminated literals
// extend to the end of the line.
func Lex(s string) []Token { return AppendLex(nil, s) }

// AppendLex appends the tokens of one logical line to dst, as Lex would
// return them, and returns the extended slice.
func AppendLex(dst []Token, s string) []Token {
	i := 0
	ws := false
	n := len(s)
	for i < n {
		c := s[i]
		if isSpace(c) {
			ws = true
			i++
			continue
		}
		start := i
		var kind Kind
		switch {
		case isIdentStart(c):
			kind = KindIdent
			for i < n && isIdentCont(s[i]) {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(s[i+1])):
			// pp-number: digits, identifier chars, '.', and exponent signs.
			kind = KindNumber
			i++
			for i < n {
				d := s[i]
				if isIdentCont(d) || d == '.' {
					i++
					continue
				}
				if (d == '+' || d == '-') && (s[i-1] == 'e' || s[i-1] == 'E' || s[i-1] == 'p' || s[i-1] == 'P') {
					i++
					continue
				}
				break
			}
		case c == '"':
			kind = KindString
			i = scanLiteral(s, i, '"')
		case c == '\'':
			kind = KindChar
			i = scanLiteral(s, i, '\'')
		default:
			if l := matchPunct(s[i:]); l > 0 {
				kind = KindPunct
				i += l
			} else {
				kind = KindOther
				i++
			}
		}
		dst = append(dst, Token{Kind: kind, Text: s[start:i], WS: ws})
		ws = false
	}
	return dst
}

// scanLiteral scans a string or char literal starting at the opening quote
// s[i]==q and returns the index just past the closing quote (or end of
// line if unterminated).
func scanLiteral(s string, i int, q byte) int {
	i++ // opening quote
	n := len(s)
	for i < n {
		switch s[i] {
		case '\\':
			i += 2
		case q:
			return i + 1
		default:
			i++
		}
	}
	return n
}

// matchPunct returns the length of the longest punctuator that s starts
// with, or 0 when s starts with none.
func matchPunct(s string) int {
	if len(s) >= 3 {
		switch s[:3] {
		case "...", "<<=", ">>=":
			return 3
		}
	}
	if len(s) >= 2 {
		switch s[:2] {
		case "##", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
			"&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=":
			return 2
		}
	}
	if len(s) >= 1 {
		switch s[0] {
		case '#', '[', ']', '(', ')', '{', '}', '.', '&', '*', '+', '-', '~', '!',
			'/', '%', '<', '>', '^', '|', '?', ':', ';', '=', ',':
			return 1
		}
	}
	return 0
}

// renderTokens reconstructs source text from tokens, inserting a space
// where the original had whitespace or where gluing two tokens would merge
// them into one.
func renderTokens(ts []Token) string {
	var b strings.Builder
	writeTokens(&b, ts)
	return b.String()
}

// writeTokens writes the text renderTokens returns to b.
func writeTokens(b *strings.Builder, ts []Token) {
	for i, t := range ts {
		if i > 0 && (t.WS || needsSpace(ts[i-1], t)) {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
}

// needsSpace reports whether a and b would lex as a different token
// sequence if concatenated directly.
func needsSpace(a, b Token) bool {
	if a.Text == "" || b.Text == "" {
		return false
	}
	la := a.Text[len(a.Text)-1]
	fb := b.Text[0]
	switch {
	case isIdentCont(la) && isIdentCont(fb):
		return true
	case a.Kind == KindNumber && (fb == '.' || fb == '+' || fb == '-'):
		return true
	case a.Kind == KindPunct && b.Kind == KindPunct:
		// Separate only when gluing would form a longer punctuator
		// ("+ +" would lex as "++", but "( (" is fine).
		return matchPunct(a.Text+b.Text) > len(a.Text)
	}
	return false
}
