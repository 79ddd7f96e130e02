package commitgen

import (
	"regexp"
	"testing"
)

// editableStmtRe is the expression editableStmt answers as, kept as its
// reference: an unanchored match of any of the four alternatives.
var editableStmtRe = regexp.MustCompile(`(=\s*-?[0-9]|0x[0-9a-fA-F]+|\breturn\b.*[0-9]|#define\s+[A-Za-z0-9_]+\s+-?[0-9])`)

// FuzzEditableStmt checks the edit-site scan against the regular
// expression on arbitrary strings, newlines and invalid UTF-8 included.
// The seeds are each alternative and its near misses: \v is not RE2
// whitespace, \b is ASCII-only and '.' stops at a newline.
func FuzzEditableStmt(f *testing.F) {
	for _, s := range []string{
		"", "x = 1;", "x =-2", "x =\v1", "x =\n\t -7", "x = y;", "= -", "=-",
		"v = 0x1f;", "0x", "0xg", "0X1", "a0xA",
		"return 5;", "\treturn x + 1;", "ireturn 5", "returned 1", "return_1",
		"éreturn 1", "\xffreturn 1", "return\n1", "return;", "return", "x;return(a[2])",
		"return x;\nreturn 1", "return 1\n", "retur 1",
		"#define A 1", "#define A -1", "#define\tA_B\t0x10", "#defineA 1",
		"#define A(x) 1", "#define A\v1", "#define A", "#define A\n\n3", "#define  -1",
		"  #define X_SPARE_MASK 0x04", "/* note: 3 */", "foo(1);", "a == 1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := editableStmt(s), editableStmtRe.MatchString(s); got != want {
			t.Fatalf("editableStmt(%q) = %v; regexp says %v", s, got, want)
		}
	})
}
