package csrc

import (
	"reflect"
	"strings"
	"testing"
)

// referenceStripComments is stripComments as it was before lines without
// a '/' came back uncopied: every byte goes through a strings.Builder.
func referenceStripComments(text string, startInComment bool) (code string, endCol int, stillIn bool) {
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

// FuzzStripComments checks stripComments against the byte-copying
// reference on arbitrary lines, starting outside and inside a block
// comment: the code, the close column and the open-comment flag must
// all agree.
func FuzzStripComments(f *testing.F) {
	for _, s := range []string{
		"", "int x;", "int x; // tail", "a /* b */ c", "x = \"/* not */\";",
		"'\\'' /", "\"unterminated", "\"esc\\\" // in\" y", "*/ after", "/* open",
		"#if defined(CONFIG_A) /* why */", "\t\t\\", "c = '/'; d = \"//\";",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, in := range []bool{false, true} {
			code, col, still := stripComments(text, in)
			wCode, wCol, wStill := referenceStripComments(text, in)
			if code != wCode || col != wCol || still != wStill {
				t.Fatalf("stripComments(%q, %v) = %q, %d, %v; reference %q, %d, %v",
					text, in, code, col, still, wCode, wCol, wStill)
			}
		}
	})
}

// referenceAnalyze is Analyze as it was before it walked the content
// with strings.IndexByte: it splits the content into a slice of lines
// first.
func referenceAnalyze(content string) *File {
	rawLines := strings.Split(strings.TrimSuffix(content, "\n"), "\n")
	if content == "" {
		rawLines = nil
	}
	f := &File{Lines: make([]Line, len(rawLines))}

	inComment := false
	inMacro := false
	macroName := ""
	macroStart := 0
	region := 0
	var stack []CondFrame

	for i, text := range rawLines {
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

// FuzzAnalyze checks Analyze against the splitting reference on
// arbitrary contents: the line count and every Line must be equal.
func FuzzAnalyze(f *testing.F) {
	for _, s := range []string{
		"", "\n", "x", "x\n", "x\n\n", "\n\nx",
		"int a;\r\n#if A\r\nb = 1;\r\n#endif\r\n",
		"/* open\nstill\n",
		"#if A\na();\n#elif B\nb();\n#else\nc();\n#endif\n",
		"#define M(x) \\\n\t(x + 1)\nint y;\n",
		"#ifdef X /* c */\n# ifndef Y\n#endif\n#endif\n#endif\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, content string) {
		got, want := Analyze(content), referenceAnalyze(content)
		if len(got.Lines) != len(want.Lines) {
			t.Fatalf("Analyze(%q): %d lines; reference %d", content, len(got.Lines), len(want.Lines))
		}
		for i := range got.Lines {
			if !reflect.DeepEqual(got.Lines[i], want.Lines[i]) {
				t.Fatalf("Analyze(%q) line %d = %+v; reference %+v", content, i+1, got.Lines[i], want.Lines[i])
			}
		}
	})
}
