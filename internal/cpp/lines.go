package cpp

import (
	"sort"
	"strings"
)

// scanned is one content after translation phases 2 and 3, lexed: the
// text of every logical line back to back, and flat records of its lines
// and tokens. A record is immutable once built; the token cache shares
// one per content between runs, concurrent ones included. lineRec and
// tokRec hold no pointers, so the collector never scans the two arrays
// that make up most of a cached content. Each #define is parsed once,
// into defs, when the record is built.
type scanned struct {
	text  string
	lines []lineRec
	toks  []tokRec
	defs  []defRec
}

// lineRec is one logical line: its text is text[off:end], its tokens
// toks[tok:tokEnd]. startLine is the 1-based physical line where it
// starts and nextLine the physical line just after it ends.
type lineRec struct {
	off, end            uint32
	tok, tokEnd         uint32
	startLine, nextLine uint32
}

// tokRec is one token: its text is text[off : off+n].
type tokRec struct {
	off, n uint32
	kind   Kind
	ws     bool
}

// defRec is the #define on lines[line], parsed when the record was
// built: the macro, or the error parsing gave, which a run reports with
// the line's position when it reaches the line.
type defRec struct {
	line uint32
	m    *Macro
	err  error
}

// maxScanBytes bounds a scanned content, so that every offset and line
// number fits its record's uint32. It fits an int on every GOARCH.
const maxScanBytes = 1<<31 - 1

// scan performs translation phases 2 and 3 on content: splice continued
// lines, replace comments with a single space, and split the result into
// logical lines. Block comments may span physical lines; the spanned
// lines merge into one logical line, and startLine bookkeeping lets the
// driver re-synchronize. String and character literals are opaque, so
// comment markers and backslashes inside them are preserved (this is
// what keeps JMake's mutation strings intact). It then lexes each line
// and parses each #define. content must be at most maxScanBytes long.
func scan(content string) *scanned {
	// The phases never lengthen the text, so buf never grows.
	buf := make([]byte, 0, len(content))
	var lines []lineRec
	line, start, lineOff := 1, 1, 0
	flush := func(next int) {
		lines = append(lines, lineRec{off: uint32(lineOff), end: uint32(len(buf)),
			startLine: uint32(start), nextLine: uint32(next)})
		lineOff, start = len(buf), next
	}
	i, n := 0, len(content)
	for i < n {
		c := content[i]
		switch {
		case c == '\\' && i+1 < n && content[i+1] == '\n':
			// Line splice: logical line continues.
			i += 2
			line++
		case c == '\\' && i+2 < n && content[i+1] == '\r' && content[i+2] == '\n':
			i += 3
			line++
		case c == '\n':
			i++
			line++
			flush(line)
		case c == '/' && i+1 < n && content[i+1] == '/':
			// Line comment: skip to end of line (not consuming the newline).
			for i < n && content[i] != '\n' {
				i++
			}
			buf = append(buf, ' ')
		case c == '/' && i+1 < n && content[i+1] == '*':
			i += 2
			for i < n && !(content[i] == '*' && i+1 < n && content[i+1] == '/') {
				if content[i] == '\n' {
					line++
				}
				i++
			}
			if i < n {
				i += 2 // closing */
			}
			buf = append(buf, ' ')
		case c == '"' || c == '\'':
			q := c
			buf = append(buf, c)
			i++
			for i < n && content[i] != q && content[i] != '\n' {
				if content[i] == '\\' && i+1 < n && content[i+1] != '\n' {
					buf = append(buf, content[i])
					i++
				}
				buf = append(buf, content[i])
				i++
			}
			if i < n && content[i] == q {
				buf = append(buf, q)
				i++
			}
		default:
			buf = append(buf, c)
			i++
		}
	}
	if len(buf) > lineOff {
		flush(line + 1)
	}

	s := &scanned{text: string(buf), lines: make([]lineRec, len(lines))}
	copy(s.lines, lines)
	// Source runs about four bytes per token: a first guess at the count.
	toks := make([]tokRec, 0, len(s.text)/4+1)
	for li := range s.lines {
		ln := &s.lines[li]
		ln.tok = uint32(len(toks))
		text := s.text[ln.off:ln.end]
		for j := 0; ; {
			kind, start, end, ws := lexToken(text, j)
			if kind == 0 {
				break
			}
			toks = append(toks, tokRec{off: ln.off + uint32(start), n: uint32(end - start), kind: kind, ws: ws})
			j = end
		}
		ln.tokEnd = uint32(len(toks))
		if name, _, ok := directiveName(text); ok && name == "define" {
			operand := toks[ln.tok+2 : ln.tokEnd]
			m, err := parseDefine(s.tokens(make([]Token, 0, len(operand)), operand))
			s.defs = append(s.defs, defRec{line: uint32(li), m: m, err: err})
		}
	}
	s.toks = make([]tokRec, len(toks))
	copy(s.toks, toks)
	return s
}

// directiveName splits a directive line into its name and the operand
// text after it; ok is false when the line is not a directive. When name
// is a directive's name (an identifier), the line's first two tokens are
// `#` and name, so its operand tokens are the rest.
func directiveName(text string) (name, rest string, ok bool) {
	trimmed := strings.TrimLeft(text, " \t")
	if !strings.HasPrefix(trimmed, "#") {
		return "", "", false
	}
	rest = strings.TrimLeft(trimmed[1:], " \t")
	name = rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name = rest[:i]
		rest = strings.TrimLeft(rest[i:], " \t")
	} else {
		rest = ""
	}
	return name, rest, true
}

// token returns the Token a record stands for. It carries no hide set.
func (s *scanned) token(r tokRec) Token {
	return Token{Kind: r.kind, WS: r.ws, Text: s.text[r.off : r.off+r.n]}
}

// tokens appends the Tokens recs stand for to dst.
func (s *scanned) tokens(dst []Token, recs []tokRec) []Token {
	for _, r := range recs {
		dst = append(dst, s.token(r))
	}
	return dst
}

// lineText returns a line's text.
func (s *scanned) lineText(ln *lineRec) string { return s.text[ln.off:ln.end] }

// lineToks returns a line's token records.
func (s *scanned) lineToks(ln *lineRec) []tokRec { return s.toks[ln.tok:ln.tokEnd] }

// def returns the #define record of lines[line].
func (s *scanned) def(line int) defRec {
	i := sort.Search(len(s.defs), func(i int) bool { return int(s.defs[i].line) >= line })
	return s.defs[i]
}
