package cpp

import (
	"fmt"
	"strconv"
	"strings"
)

// Macro is one #define'd macro.
type Macro struct {
	Name     string
	FuncLike bool
	Params   []string
	Variadic bool
	// Body is shared: a #define's Macro is parsed once per content and
	// held by the token cache's record and by every run that reaches the
	// line, and a Predefined macro by every run seeded with its set. So
	// nothing writes to a Macro once built: substitute copies body tokens
	// into a fresh replacement.
	Body []Token
}

// paramIndex returns the parameter index of name, the variadic slot for
// __VA_ARGS__, or -1.
func (m *Macro) paramIndex(name string) int {
	for i, p := range m.Params {
		if p == name {
			return i
		}
	}
	if m.Variadic && name == "__VA_ARGS__" {
		return len(m.Params)
	}
	return -1
}

// expandTokens fully macro-expands a token sequence using the worklist
// formulation of the standard algorithm: replacement tokens are pushed back
// onto the front of the worklist so that later tokens can complete
// function-like invocations begun by an expansion.
//
// Nothing writes to ts, or to any slice reachable from it: the worklist
// starts as a sub-slice of ts and only ever shrinks from the front, and a
// replacement is pushed by appending the rest of the worklist into the
// replacement's own array. Predefined and #define macro bodies are
// shared by concurrent runs, and ts may be the run's line buffer, which
// the next line overwrites; so the result never aliases a body, and it
// aliases ts only when no token of ts can expand: expandTokens then
// returns ts itself and allocates nothing.
func (p *pp) expandTokens(ts []Token) ([]Token, error) {
	first := p.firstExpandable(ts)
	if first == len(ts) {
		return ts, nil
	}
	out := append(make([]Token, 0, len(ts)), ts[:first]...)
	work := ts[first:]
	steps := first
	for len(work) > 0 {
		steps++
		if steps > 1_000_000 {
			return nil, p.errf("macro expansion does not terminate")
		}
		t := work[0]
		work = work[1:]
		if t.Kind != KindIdent {
			out = append(out, t)
			continue
		}
		// Dynamic built-ins.
		switch t.Text {
		case "__LINE__":
			out = append(out, Token{Kind: KindNumber, Text: strconv.Itoa(p.curLine), WS: t.WS})
			continue
		case "__FILE__":
			out = append(out, Token{Kind: KindString, Text: strconv.Quote(p.curFile), WS: t.WS})
			continue
		case "__COUNTER__":
			out = append(out, Token{Kind: KindNumber, Text: strconv.Itoa(p.counter), WS: t.WS})
			p.counter++
			continue
		}
		if p.inCond && t.Text == "defined" {
			// As in gcc, the operand of a `defined` produced by expansion is
			// read unexpanded, so it tests the macro table.
			n := definedOperandLen(work)
			out = append(append(out, t), work[:n]...)
			work = work[n:]
			continue
		}
		m, ok := p.macroFor(t.Text)
		if !ok || t.hidden(t.Text) {
			out = append(out, t)
			continue
		}
		if !m.FuncLike {
			rep := p.substitute(m, nil, t.WS)
			hideAll(rep, t.hide, m.Name)
			work = append(rep, work...)
			continue
		}
		// Function-like: an invocation needs a '(' next in the stream.
		if len(work) == 0 || !(work[0].Kind == KindPunct && work[0].Text == "(") {
			out = append(out, t)
			continue
		}
		args, rest, err := p.collectArgs(m, work[1:])
		if err != nil {
			return nil, err
		}
		work = rest
		rep := p.substitute(m, args, t.WS)
		hideAll(rep, t.hide, m.Name)
		work = append(rep, work...)
	}
	return out, nil
}

// firstExpandable returns the index of the first token of ts that
// expansion would change, or len(ts) when there is none: an identifier
// naming a macro outside its own hide set, a dynamic built-in, or, while
// an #if is being expanded, `defined`.
func (p *pp) firstExpandable(ts []Token) int {
	for i := range ts {
		t := &ts[i]
		if t.Kind != KindIdent {
			continue
		}
		switch t.Text {
		case "__LINE__", "__FILE__", "__COUNTER__":
			return i
		case "defined":
			if p.inCond {
				return i
			}
		}
		if _, ok := p.macroFor(t.Text); ok && !t.hidden(t.Text) {
			return i
		}
	}
	return len(ts)
}

// definedOperandLen is the length of the `NAME` or `( NAME )` operand at
// the front of ts, or 0 when none is there.
func definedOperandLen(ts []Token) int {
	switch {
	case len(ts) > 0 && ts[0].Kind == KindIdent:
		return 1
	case len(ts) > 2 && ts[0].Text == "(" && ts[1].Kind == KindIdent && ts[2].Text == ")":
		return 3
	}
	return 0
}

// hideAll extends every replacement token's hide set with the invoking
// token's hide set plus the expanded macro's own name, so that indirect
// recursion (A -> B -> A) is blocked as the standard requires. Tokens that
// arrive with the same set share one extended set, built once.
func hideAll(rep []Token, inherited *hideSet, name string) {
	type extension struct{ from, to *hideSet }
	var buf [4]extension
	built := buf[:0]
	for i := range rep {
		h := rep[i].hide
		j := 0
		for j < len(built) && built[j].from != h {
			j++
		}
		if j == len(built) {
			to := h
			for in := inherited; in != nil; in = in.next {
				to = to.with(in.name)
			}
			built = append(built, extension{h, to.with(name)})
		}
		rep[i].hide = built[j].to
	}
}

// collectArgs parses a macro argument list from ts, which starts just after
// the opening parenthesis. It returns the raw (unexpanded) argument token
// lists and the remaining tokens after the closing parenthesis.
func (p *pp) collectArgs(m *Macro, ts []Token) (args [][]Token, rest []Token, err error) {
	depth := 1
	var cur []Token
	i := 0
	for ; i < len(ts); i++ {
		t := ts[i]
		if t.Kind == KindPunct {
			switch t.Text {
			case "(", "[", "{":
				depth++
			case ")", "]", "}":
				if t.Text == ")" && depth == 1 {
					args = append(args, cur)
					goto done
				}
				depth--
			case ",":
				// A comma at depth 1 separates arguments — unless the named
				// parameters are already filled and the rest flows into
				// __VA_ARGS__.
				if depth == 1 && !(m.Variadic && len(args) >= len(m.Params)) {
					args = append(args, cur)
					cur = nil
					continue
				}
			}
		}
		cur = append(cur, t)
	}
	return nil, nil, p.errf("unterminated invocation of macro %q", m.Name)
done:
	rest = ts[i+1:]
	want := len(m.Params)
	if want == 0 && !m.Variadic && len(args) == 1 && len(args[0]) == 0 {
		args = nil // f() has zero arguments, not one empty one
	}
	if m.Variadic {
		if len(args) < want {
			return nil, nil, p.errf("macro %q requires at least %d arguments, got %d", m.Name, want, len(args))
		}
		// Re-join everything past the named parameters into __VA_ARGS__.
		if len(args) > want+1 {
			var va []Token
			for j := want; j < len(args); j++ {
				if j > want {
					va = append(va, Token{Kind: KindPunct, Text: ","})
				}
				va = append(va, args[j]...)
			}
			args = append(args[:want], va)
		}
		if len(args) == want {
			args = append(args, nil) // empty __VA_ARGS__
		}
	} else if len(args) != want {
		return nil, nil, p.errf("macro %q requires %d arguments, got %d", m.Name, want, len(args))
	}
	return args, rest, nil
}

// substitute builds the replacement token list for one invocation of m,
// applying # stringification, ## pasting, and parameter substitution.
// rawArgs are unexpanded; expansion of an argument happens lazily the first
// time it is substituted outside a # or ## context.
func (p *pp) substitute(m *Macro, rawArgs [][]Token, leadWS bool) []Token {
	expanded := make([][]Token, len(rawArgs))
	haveExp := make([]bool, len(rawArgs))
	expandArg := func(i int) []Token {
		if !haveExp[i] {
			e, err := p.expandTokens(rawArgs[i])
			if err != nil {
				// Propagate by substituting raw tokens; the caller's own
				// expansion pass will rediscover the error deterministically.
				e = rawArgs[i]
			}
			expanded[i] = e
			haveExp[i] = true
		}
		return expanded[i]
	}

	var out []Token
	body := m.Body
	for i := 0; i < len(body); i++ {
		t := body[i]
		// Stringification: # param
		if t.Kind == KindPunct && t.Text == "#" && m.FuncLike && i+1 < len(body) {
			if pi := m.paramIndex(body[i+1].Text); pi >= 0 && body[i+1].Kind == KindIdent {
				out = append(out, Token{Kind: KindString, Text: stringify(rawArgs[pi]), WS: t.WS})
				i++
				continue
			}
		}
		// Pasting: operand ## operand [## operand ...]
		if i+1 < len(body) && body[i+1].Kind == KindPunct && body[i+1].Text == "##" {
			chain := [][]Token{pasteOperand(m, t, rawArgs)}
			for i+1 < len(body) && body[i+1].Kind == KindPunct && body[i+1].Text == "##" {
				i += 2
				if i >= len(body) {
					break // malformed trailing ##; drop it
				}
				chain = append(chain, pasteOperand(m, body[i], rawArgs))
			}
			out = append(out, pasteChain(chain, t.WS)...)
			continue
		}
		// Plain parameter substitution.
		if t.Kind == KindIdent && m.FuncLike {
			if pi := m.paramIndex(t.Text); pi >= 0 {
				arg := expandArg(pi)
				for j, at := range arg {
					if j == 0 {
						at.WS = t.WS
					}
					out = append(out, at)
				}
				continue
			}
		}
		out = append(out, t)
	}
	if len(out) > 0 {
		out[0].WS = leadWS
	}
	return out
}

// pasteOperand resolves one ## operand: parameters yield their raw
// (unexpanded) argument tokens, anything else yields itself.
func pasteOperand(m *Macro, t Token, rawArgs [][]Token) []Token {
	if t.Kind == KindIdent && m.FuncLike {
		if pi := m.paramIndex(t.Text); pi >= 0 {
			return rawArgs[pi]
		}
	}
	return []Token{t}
}

// pasteChain concatenates operand lists, gluing the last token of each list
// to the first token of the next and re-lexing the glued text.
func pasteChain(chain [][]Token, leadWS bool) []Token {
	var out []Token
	for _, part := range chain {
		if len(part) == 0 {
			continue
		}
		if len(out) == 0 {
			out = append(out, part...)
			continue
		}
		glued := out[len(out)-1].Text + part[0].Text
		out = out[:len(out)-1]
		relexed := Lex(glued)
		out = append(out, relexed...)
		out = append(out, part[1:]...)
	}
	if len(out) > 0 {
		out[0].WS = leadWS
	}
	return out
}

// stringify renders arg tokens as a C string literal per the # operator:
// interior whitespace collapses to single spaces, and embedded quotes and
// backslashes are escaped.
func stringify(ts []Token) string {
	var b strings.Builder
	b.WriteByte('"')
	for i, t := range ts {
		if i > 0 && t.WS {
			b.WriteByte(' ')
		}
		for j := 0; j < len(t.Text); j++ {
			c := t.Text[j]
			if c == '"' || c == '\\' {
				b.WriteByte('\\')
			}
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// parseDefine parses the token stream after "#define".
func parseDefine(ts []Token) (*Macro, error) {
	if len(ts) == 0 || ts[0].Kind != KindIdent {
		return nil, fmt.Errorf("#define requires a macro name")
	}
	m := &Macro{Name: ts[0].Text}
	rest := ts[1:]
	// Function-like only when '(' immediately follows the name, no space.
	if len(rest) > 0 && rest[0].Kind == KindPunct && rest[0].Text == "(" && !rest[0].WS {
		m.FuncLike = true
		i := 1
		for {
			if i >= len(rest) {
				return nil, fmt.Errorf("unterminated parameter list in #define %s", m.Name)
			}
			t := rest[i]
			switch {
			case t.Kind == KindPunct && t.Text == ")":
				i++
				goto bodyStart
			case t.Kind == KindIdent:
				m.Params = append(m.Params, t.Text)
				i++
			case t.Kind == KindPunct && t.Text == "...":
				m.Variadic = true
				i++
			case t.Kind == KindPunct && t.Text == ",":
				i++
			default:
				return nil, fmt.Errorf("bad parameter list token %q in #define %s", t.Text, m.Name)
			}
		}
	bodyStart:
		rest = rest[i:]
	}
	// The body keeps the directive's own tokens (see Macro). Its first
	// token's WS is never read: substitute and pasteChain give the first
	// output token the invocation's leading whitespace.
	m.Body = rest
	return m, nil
}
