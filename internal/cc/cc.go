// Package cc implements the front end of a C compiler, sufficient to decide
// whether a preprocessed translation unit (.i text) compiles into an object
// file.
//
// JMake needs exactly the front end's verdict (paper §III-A): a file
// containing a mutation token (an invalid '@' character) must fail, while
// the original file must succeed — and a file whose architecture-specific
// declarations are missing must fail for that architecture. cc therefore
// checks three things for real: character validity, bracket structure, and
// declaration-before-use for called functions ("implicit declaration",
// an error in kernel builds).
package cc

import (
	"fmt"
	"strconv"
	"strings"

	"jmake/internal/cpp"
)

// Diagnostic is a positioned compiler error, with positions mapped back to
// the original source via the .i file's line markers.
type Diagnostic struct {
	File string
	Line int
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: error: %s", d.File, d.Line, d.Msg)
}

// CompileError aggregates the diagnostics of a failed compilation.
type CompileError struct {
	Diags []Diagnostic
}

func (e *CompileError) Error() string {
	if len(e.Diags) == 0 {
		return "cc: compilation failed"
	}
	msgs := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		msgs[i] = d.String()
	}
	return strings.Join(msgs, "\n")
}

// Object summarizes a successfully compiled translation unit; its fields
// feed the evaluation's cost model.
type Object struct {
	// Lines is the number of code lines compiled (markers and blanks
	// excluded).
	Lines int
	// Functions is the number of function definitions.
	Functions int
	// Defined lists the functions this unit defines, in order.
	Defined []string
}

// maxDiags bounds error reporting, like gcc's default error limit.
const maxDiags = 20

// controlKeywords may be followed by '(' without being function calls.
var controlKeywords = map[string]bool{
	"if": true, "while": true, "for": true, "switch": true, "return": true,
	"sizeof": true, "do": true, "else": true, "goto": true, "case": true,
	"default": true, "break": true, "continue": true, "typeof": true,
	"__attribute__": true, "asm": true, "__asm__": true,
}

// typeKeywords can precede a declarator, so "int foo(" declares foo rather
// than calling it.
var typeKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "unsigned": true, "signed": true,
	"const": true, "volatile": true, "static": true, "extern": true,
	"inline": true, "__inline__": true, "struct": true, "union": true,
	"enum": true, "typedef": true, "register": true, "_Bool": true,
}

func isKeyword(s string) bool { return controlKeywords[s] || typeKeywords[s] }

// tok is a token with its source position resolved through line markers.
type tok struct {
	cpp.Token
	file string
	line int
}

// Compile type-checks the preprocessed translation unit and returns a
// summary of the object that a full compiler would emit. On failure the
// returned error is a *CompileError carrying positioned diagnostics.
func Compile(iText string) (Object, error) {
	toks, codeLines := scan(iText)
	var diags []Diagnostic
	addDiag := func(d Diagnostic) {
		if len(diags) < maxDiags {
			diags = append(diags, d)
		}
	}

	// Pass 1: character validity and literal well-formedness.
	for _, t := range toks {
		switch t.Kind {
		case cpp.KindOther:
			addDiag(Diagnostic{t.file, t.line, fmt.Sprintf("stray %q in program", t.Text)})
		case cpp.KindString:
			if len(t.Text) < 2 || t.Text[len(t.Text)-1] != '"' {
				addDiag(Diagnostic{t.file, t.line, "missing terminating \" character"})
			}
		case cpp.KindChar:
			if len(t.Text) < 3 || t.Text[len(t.Text)-1] != '\'' {
				addDiag(Diagnostic{t.file, t.line, "missing terminating ' character"})
			}
		}
	}

	// Pass 2: bracket structure.
	checkBalance(toks, addDiag)

	// Pass 3: declaration analysis. Only when the structure is sound —
	// depth tracking is meaningless in unbalanced code.
	var obj Object
	obj.Lines = codeLines
	if len(diags) == 0 {
		declared, defined := collectDeclarations(toks)
		obj.Functions = len(defined)
		obj.Defined = defined
		seen := make(map[string]bool, len(defined))
		for _, name := range defined {
			if seen[name] {
				addDiag(Diagnostic{Msg: fmt.Sprintf("redefinition of %q", name)})
			}
			seen[name] = true
		}
		checkCalls(toks, declared, addDiag)
	}

	if len(diags) > 0 {
		return Object{}, &CompileError{Diags: diags}
	}
	return obj, nil
}

// scan lexes the .i text, resolving line markers into per-token positions.
// It walks the text in place, one line at a time, and sizes the token
// slice once from the text length.
func scan(iText string) ([]tok, int) {
	out := make([]tok, 0, len(iText)/4)
	var lineToks []cpp.Token // reused for every line
	file := "<unknown>"
	line := 0
	codeLines := 0
	for rest := iText; ; {
		raw, more := rest, false
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			raw, rest, more = rest[:i], rest[i+1:], true
		}
		if f, l, ok := parseMarker(raw); ok {
			file, line = f, l-1
		} else {
			line++
			if strings.TrimSpace(raw) != "" {
				codeLines++
				lineToks = cpp.AppendLex(lineToks[:0], raw)
				for _, t := range lineToks {
					out = append(out, tok{Token: t, file: file, line: line})
				}
			}
		}
		if !more {
			return out, codeLines
		}
	}
}

// parseMarker reads a line marker: # <line> "<file>" [flags]. The file
// name is a Go-quoted string, as cpp writes it; a name that does not
// unquote is read up to the next '"'.
func parseMarker(s string) (file string, line int, ok bool) {
	rest, isMarker := strings.CutPrefix(s, "# ")
	if !isMarker {
		return "", 0, false
	}
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(rest[:sp])
	if err != nil {
		return "", 0, false
	}
	rest = rest[sp+1:]
	if !strings.HasPrefix(rest, "\"") {
		return "", 0, false
	}
	if q, err := strconv.QuotedPrefix(rest); err == nil {
		if f, err := strconv.Unquote(q); err == nil {
			return f, n, true
		}
	}
	end := strings.Index(rest[1:], "\"")
	if end < 0 {
		return "", 0, false
	}
	return rest[1 : 1+end], n, true
}

// checkBalance verifies that (), [], {} nest correctly.
func checkBalance(toks []tok, addDiag func(Diagnostic)) {
	type open struct {
		ch   string
		file string
		line int
	}
	var stack []open
	match := map[string]string{")": "(", "]": "[", "}": "{"}
	for _, t := range toks {
		if t.Kind != cpp.KindPunct {
			continue
		}
		switch t.Text {
		case "(", "[", "{":
			stack = append(stack, open{t.Text, t.file, t.line})
		case ")", "]", "}":
			if len(stack) == 0 {
				addDiag(Diagnostic{t.file, t.line, fmt.Sprintf("unexpected %q", t.Text)})
				return
			}
			top := stack[len(stack)-1]
			if top.ch != match[t.Text] {
				addDiag(Diagnostic{t.file, t.line,
					fmt.Sprintf("mismatched %q: open %q at %s:%d", t.Text, top.ch, top.file, top.line)})
				return
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) > 0 {
		top := stack[len(stack)-1]
		addDiag(Diagnostic{top.file, top.line, fmt.Sprintf("unclosed %q", top.ch)})
	}
}

// collectDeclarations gathers function names declared or defined at file
// scope: an identifier immediately followed by '(' at brace depth 0. It
// also returns the subset that are *definitions*, in token order: those
// whose parameter list, once its ')' closes it, is followed by a '{'
// before any ';', ',' or '='. One pass resolves them all: a stack of open
// parens marks the ones a candidate opened, and every candidate closed
// since the last terminator is resolved at the next one, so a long run of
// file-scope calls with no terminator costs linear time.
func collectDeclarations(toks []tok) (declared map[string]bool, defined []string) {
	declared = make(map[string]bool)
	type candidate struct {
		name    string
		defined bool
	}
	var cands []candidate
	var parens []int // per open '(': its candidate's index, or -1
	var closed []int // candidates closed since the last terminator
	depth := 0
	next := -1 // the candidate whose '(' is the next token
	for i, t := range toks {
		if t.Kind == cpp.KindPunct {
			switch t.Text {
			case "{", ";", ",", "=":
				for _, c := range closed {
					cands[c].defined = t.Text == "{"
				}
				closed = closed[:0]
				if t.Text == "{" {
					depth++
				}
			case "}":
				depth--
			case "(":
				parens = append(parens, next)
			case ")":
				if n := len(parens); n > 0 {
					if c := parens[n-1]; c >= 0 {
						closed = append(closed, c)
					}
					parens = parens[:n-1]
				}
			}
			next = -1
			continue
		}
		next = -1
		if depth != 0 || t.Kind != cpp.KindIdent || isKeyword(t.Text) {
			continue
		}
		if i+1 >= len(toks) || toks[i+1].Kind != cpp.KindPunct || toks[i+1].Text != "(" {
			continue
		}
		declared[t.Text] = true
		next = len(cands)
		cands = append(cands, candidate{name: t.Text})
	}
	for _, c := range cands {
		if c.defined {
			defined = append(defined, c.name)
		}
	}
	return declared, defined
}

// checkCalls reports calls to functions that are never declared in the
// translation unit. Kernel builds treat implicit declarations as errors;
// this is the mechanism by which a driver that needs another architecture's
// headers fails to compile for the wrong architecture.
func checkCalls(toks []tok, declared map[string]bool, addDiag func(Diagnostic)) {
	depth := 0
	reported := make(map[string]bool)
	for i, t := range toks {
		if t.Kind == cpp.KindPunct {
			switch t.Text {
			case "{":
				depth++
			case "}":
				depth--
			}
			continue
		}
		if depth == 0 || t.Kind != cpp.KindIdent || isKeyword(t.Text) {
			continue
		}
		if i+1 >= len(toks) || toks[i+1].Kind != cpp.KindPunct || toks[i+1].Text != "(" {
			continue
		}
		// Member access (p->init(...), s.cb(...)) goes through pointers, not
		// file-scope declarations.
		if i > 0 && toks[i-1].Kind == cpp.KindPunct && (toks[i-1].Text == "->" || toks[i-1].Text == ".") {
			continue
		}
		// A declarator inside a body ("int foo(void);") is rare in kernel
		// style; treat identifier-preceded-by-type-keyword as a declaration.
		if i > 0 && toks[i-1].Kind == cpp.KindIdent && typeKeywords[toks[i-1].Text] {
			continue
		}
		if !declared[t.Text] && !reported[t.Text] {
			reported[t.Text] = true
			addDiag(Diagnostic{t.file, t.line,
				fmt.Sprintf("implicit declaration of function %q", t.Text)})
		}
	}
}
