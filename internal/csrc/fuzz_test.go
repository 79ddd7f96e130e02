package csrc

import (
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
