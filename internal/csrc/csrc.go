// Package csrc analyzes C source files at the physical-line level: which
// lines sit inside comments, which belong to macro definitions (including
// backslash continuations), and which preprocessor conditionals enclose
// each line.
//
// JMake's mutation placement (paper §III-B) distinguishes exactly these
// three cases — comment lines, macro-definition lines, other lines — and
// needs the enclosing-conditional structure both to minimize mutations
// (one per region between conditional directives) and to explain, after
// the fact, why an unseen mutation escaped the compiler (Table IV).
package csrc

import "strings"

// CondKind is the kind of conditional directive opening a region.
type CondKind int

// Conditional kinds.
const (
	CondIf CondKind = iota + 1
	CondIfdef
	CondIfndef
	CondElif
	CondElse
)

func (k CondKind) String() string {
	switch k {
	case CondIf:
		return "if"
	case CondIfdef:
		return "ifdef"
	case CondIfndef:
		return "ifndef"
	case CondElif:
		return "elif"
	case CondElse:
		return "else"
	default:
		return "?"
	}
}

// CondBranch records the own test of one earlier branch in a conditional
// chain: the directive kind and its argument.
type CondBranch struct {
	Kind CondKind
	Arg  string
}

// CondFrame is one enclosing conditional at a given line.
type CondFrame struct {
	Kind CondKind
	// Arg is the directive's argument: the expression of #if/#elif, the
	// identifier of #ifdef/#ifndef. For an #else frame, Arg is the argument
	// of the matching opening directive.
	Arg string
	// Line is the 1-based line of the directive that opened this branch.
	Line int
	// Prior lists every earlier branch of the same chain, outermost-opening
	// first. An #elif or #else branch is active only when all of these
	// tests failed, so static consumers must conjoin their negations. Empty
	// for an opening #if/#ifdef/#ifndef frame. The slice is shared between
	// lines; callers must not mutate it.
	Prior []CondBranch
}

// Line describes one physical source line.
type Line struct {
	// Num is the 1-based physical line number.
	Num int
	// Text is the raw line content (no newline).
	Text string
	// InComment is true when the line begins inside a block comment.
	InComment bool
	// CommentEndCol is the byte offset just past the closing "*/" when the
	// line begins inside a comment that ends on this line; -1 otherwise.
	CommentEndCol int
	// CommentOnly is true when the line contains no code at all (blank,
	// fully inside a comment, or only comment text).
	CommentOnly bool
	// Directive is the preprocessor directive name when the line starts one
	// ("if", "ifdef", "define", "include", ...), else "".
	Directive string
	// DirectiveArg is the remainder of the directive line.
	DirectiveArg string
	// InMacroDef is true when the line belongs to a #define (the directive
	// line itself or a backslash continuation of one).
	InMacroDef bool
	// MacroName is the macro being defined when InMacroDef.
	MacroName string
	// MacroStart is the line number of the #define when InMacroDef.
	MacroStart int
	// Conds is the stack of enclosing conditionals (outermost first). The
	// slice is shared between lines; callers must not mutate it.
	Conds []CondFrame
	// Region is the line number of the most recent #if/#ifdef/#ifndef/
	// #elif/#else directive at or before this line, or 0. Non-macro changed
	// lines with equal Region share one mutation (paper §III-B: "since the
	// beginning of the file, or since the most recent conditional
	// compilation directive").
	Region int
}

// File is the analysis result for one file.
type File struct {
	Lines []Line // index i is physical line i+1
}

// LineAt returns the info for 1-based line n; ok is false out of range.
func (f *File) LineAt(n int) (Line, bool) {
	if n < 1 || n > len(f.Lines) {
		return Line{}, false
	}
	return f.Lines[n-1], true
}

// Analyze scans content and classifies every physical line. A final
// newline ends the last line rather than opening an empty one.
func Analyze(content string) *File {
	n := strings.Count(content, "\n")
	if content != "" && content[len(content)-1] != '\n' {
		n++
	}
	f := &File{Lines: make([]Line, n)}

	inComment := false
	inMacro := false
	macroName := ""
	macroStart := 0
	region := 0
	var stack []CondFrame

	unread := content
	for i := range f.Lines {
		text := unread
		if j := strings.IndexByte(unread, '\n'); j >= 0 {
			text, unread = unread[:j], unread[j+1:]
		}
		li := Line{Num: i + 1, Text: text, CommentEndCol: -1}
		li.InComment = inComment
		// A conditional directive line itself belongs to the *preceding*
		// region — the preprocessor always sees the directive, so a mutation
		// certifying it must land before it, outside the region it opens.
		regionAtStart := region

		code, endCol, stillIn := stripComments(text, inComment)
		if li.InComment && !stillIn {
			li.CommentEndCol = endCol
		}
		trimmedCode := strings.TrimSpace(code)
		li.CommentOnly = trimmedCode == ""

		continuing := inMacro && !li.InComment
		if continuing {
			li.InMacroDef = true
			li.MacroName = macroName
			li.MacroStart = macroStart
		}
		// Does the macro continue past this line?
		if inMacro {
			if !strings.HasSuffix(strings.TrimRight(text, " \t"), "\\") {
				inMacro = false
			}
		}

		if !li.InComment && strings.HasPrefix(trimmedCode, "#") {
			rest := strings.TrimLeft(trimmedCode[1:], " \t")
			name := rest
			arg := ""
			if j := strings.IndexAny(rest, " \t"); j >= 0 {
				name = rest[:j]
				arg = strings.TrimSpace(rest[j:])
			}
			li.Directive = name
			li.DirectiveArg = arg
			li.CommentOnly = false
			switch name {
			case "define":
				li.InMacroDef = true
				li.MacroName = defineName(arg)
				li.MacroStart = li.Num
				if strings.HasSuffix(strings.TrimRight(text, " \t"), "\\") {
					inMacro = true
					macroName = li.MacroName
					macroStart = li.Num
				}
			case "if":
				region = li.Num
				stack = append(stack, CondFrame{Kind: CondIf, Arg: arg, Line: li.Num})
			case "ifdef":
				region = li.Num
				stack = append(stack, CondFrame{Kind: CondIfdef, Arg: arg, Line: li.Num})
			case "ifndef":
				region = li.Num
				stack = append(stack, CondFrame{Kind: CondIfndef, Arg: arg, Line: li.Num})
			case "elif":
				region = li.Num
				if len(stack) > 0 {
					top := stack[len(stack)-1]
					stack = append(stack[:len(stack)-1:len(stack)-1],
						CondFrame{Kind: CondElif, Arg: arg, Line: li.Num,
							Prior: appendBranch(top.Prior, top.Kind, top.Arg)})
				}
			case "else":
				region = li.Num
				if len(stack) > 0 {
					top := stack[len(stack)-1]
					stack = append(stack[:len(stack)-1:len(stack)-1],
						CondFrame{Kind: CondElse, Arg: top.Arg, Line: li.Num,
							Prior: appendBranch(top.Prior, top.Kind, top.Arg)})
				}
			case "endif":
				if len(stack) > 0 {
					stack = stack[: len(stack)-1 : len(stack)-1]
				}
			}
		}

		li.Conds = stack
		li.Region = regionAtStart
		f.Lines[i] = li
		inComment = stillIn
	}
	return f
}

// appendBranch extends a prior-branch list into a fresh slice, so chain
// siblings never alias each other's backing arrays.
func appendBranch(prior []CondBranch, kind CondKind, arg string) []CondBranch {
	out := make([]CondBranch, len(prior), len(prior)+1)
	copy(out, prior)
	return append(out, CondBranch{Kind: kind, Arg: arg})
}

// stripComments removes comment text from one line. startInComment says
// the line begins inside a block comment. It returns the code portion
// (comment bytes replaced by spaces), the offset just past the first "*/"
// that closes an initial comment (or -1), and whether a block comment is
// still open at end of line. String literals are respected.
func stripComments(text string, startInComment bool) (code string, endCol int, stillIn bool) {
	// Every comment opens with '/'. Quoted text is copied verbatim, so a
	// line outside a comment without one comes back as it is.
	if !startInComment && strings.IndexByte(text, '/') < 0 {
		return text, -1, false
	}
	var b strings.Builder
	endCol = -1
	in := startInComment
	i := 0
	n := len(text)
	first := startInComment
	for i < n {
		if in {
			if text[i] == '*' && i+1 < n && text[i+1] == '/' {
				in = false
				i += 2
				if first {
					endCol = i
					first = false
				}
				b.WriteByte(' ')
				continue
			}
			i++
			continue
		}
		c := text[i]
		switch {
		case c == '/' && i+1 < n && text[i+1] == '/':
			return b.String(), endCol, false
		case c == '/' && i+1 < n && text[i+1] == '*':
			in = true
			i += 2
		case c == '"' || c == '\'':
			q := c
			b.WriteByte(c)
			i++
			for i < n && text[i] != q {
				if text[i] == '\\' && i+1 < n {
					b.WriteByte(text[i])
					i++
				}
				b.WriteByte(text[i])
				i++
			}
			if i < n {
				b.WriteByte(q)
				i++
			}
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String(), endCol, in
}

// defineName extracts the macro name from a #define argument.
func defineName(arg string) string {
	for i := 0; i < len(arg); i++ {
		c := arg[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return arg[:i]
		}
	}
	return arg
}
