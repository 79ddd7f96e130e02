package csrc

import (
	"strings"
	"testing"
)

const sample = `/* SPDX header */
#include <linux/types.h>

#define REG_CTRL 0x04
#define MUX(x) \
	(((x) & 0xf) << 4) | \
	(((x) & 0xf) << 0)

/* multi
   line
   comment */
int global = 1; /* trailing */

#ifdef CONFIG_FOO
static int foo_state;
#else
static int bar_state;
#endif

#if defined(CONFIG_A) && !defined(CONFIG_B)
int ab;
#elif CONFIG_C
int c_only;
#endif

int f(void)
{
	return REG_CTRL; // line comment
}
`

func analyzeSample(t *testing.T) *File {
	t.Helper()
	return Analyze(sample)
}

func line(t *testing.T, f *File, n int) Line {
	t.Helper()
	li, ok := f.LineAt(n)
	if !ok {
		t.Fatalf("LineAt(%d) out of range", n)
	}
	return li
}

func TestCommentClassification(t *testing.T) {
	f := analyzeSample(t)
	if !line(t, f, 1).CommentOnly {
		t.Error("line 1 (block comment) should be CommentOnly")
	}
	if li := line(t, f, 9); !li.CommentOnly || li.InComment {
		t.Errorf("line 9 starts a multi-line comment: %+v", li)
	}
	if li := line(t, f, 10); !li.InComment || !li.CommentOnly {
		t.Errorf("line 10 is inside the comment: %+v", li)
	}
	if li := line(t, f, 11); !li.InComment || li.CommentEndCol < 0 {
		t.Errorf("line 11 ends the comment: %+v", li)
	}
	if li := line(t, f, 12); li.CommentOnly || li.InComment {
		t.Errorf("line 12 has code before a trailing comment: %+v", li)
	}
	if li := line(t, f, 2); li.CommentOnly {
		t.Error("line 2 (#include) should not be comment-only")
	}
	if li := line(t, f, 3); !li.CommentOnly {
		t.Error("line 3 (blank) should be comment-only")
	}
}

func TestMacroDefinitionTracking(t *testing.T) {
	f := analyzeSample(t)
	if li := line(t, f, 4); !li.InMacroDef || li.MacroName != "REG_CTRL" || li.MacroStart != 4 {
		t.Errorf("line 4: %+v", li)
	}
	for n := 5; n <= 7; n++ {
		li := line(t, f, n)
		if !li.InMacroDef || li.MacroName != "MUX" || li.MacroStart != 5 {
			t.Errorf("line %d should be in MUX definition: %+v", n, li)
		}
	}
	if li := line(t, f, 8); li.InMacroDef {
		t.Errorf("line 8 should not be in a macro: %+v", li)
	}
}

func TestDirectiveParsing(t *testing.T) {
	f := analyzeSample(t)
	if li := line(t, f, 2); li.Directive != "include" || li.DirectiveArg != "<linux/types.h>" {
		t.Errorf("line 2: %+v", li)
	}
	if li := line(t, f, 14); li.Directive != "ifdef" || li.DirectiveArg != "CONFIG_FOO" {
		t.Errorf("line 14: %+v", li)
	}
}

func TestConditionalStack(t *testing.T) {
	f := analyzeSample(t)
	// Line 15 is under #ifdef CONFIG_FOO.
	li := line(t, f, 15)
	if len(li.Conds) != 1 || li.Conds[0].Kind != CondIfdef || li.Conds[0].Arg != "CONFIG_FOO" {
		t.Errorf("line 15 conds = %+v", li.Conds)
	}
	// Line 17 is under the #else of CONFIG_FOO.
	li = line(t, f, 17)
	if len(li.Conds) != 1 || li.Conds[0].Kind != CondElse || li.Conds[0].Arg != "CONFIG_FOO" {
		t.Errorf("line 17 conds = %+v", li.Conds)
	}
	// Line 21 is under the #if defined(...) expression.
	li = line(t, f, 21)
	if len(li.Conds) != 1 || li.Conds[0].Kind != CondIf ||
		!strings.Contains(li.Conds[0].Arg, "CONFIG_A") {
		t.Errorf("line 21 conds = %+v", li.Conds)
	}
	// Line 23 is under the #elif.
	li = line(t, f, 23)
	if len(li.Conds) != 1 || li.Conds[0].Kind != CondElif || li.Conds[0].Arg != "CONFIG_C" {
		t.Errorf("line 23 conds = %+v", li.Conds)
	}
	// Line 27 (int f...) is outside all conditionals.
	if li = line(t, f, 26); len(li.Conds) != 0 {
		t.Errorf("line 26 conds = %+v, want empty", li.Conds)
	}
}

func TestRegions(t *testing.T) {
	f := analyzeSample(t)
	if r := line(t, f, 12).Region; r != 0 {
		t.Errorf("line 12 region = %d, want 0 (before any conditional)", r)
	}
	if r := line(t, f, 15).Region; r != 14 {
		t.Errorf("line 15 region = %d, want 14 (#ifdef line)", r)
	}
	if r := line(t, f, 17).Region; r != 16 {
		t.Errorf("line 17 region = %d, want 16 (#else line)", r)
	}
	// Lines after #endif keep the last directive's region (the paper's rule
	// does not split at #endif).
	if r := line(t, f, 19).Region; r != 16 {
		t.Errorf("line 19 region = %d, want 16", r)
	}
	if r := line(t, f, 23).Region; r != 22 {
		t.Errorf("line 23 region = %d, want 22 (#elif)", r)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#ifdef A
#ifdef B
int ab;
#endif
int a_only;
#endif
`
	f := Analyze(src)
	li, _ := f.LineAt(3)
	if len(li.Conds) != 2 || li.Conds[0].Arg != "A" || li.Conds[1].Arg != "B" {
		t.Errorf("line 3 conds = %+v", li.Conds)
	}
	li, _ = f.LineAt(5)
	if len(li.Conds) != 1 || li.Conds[0].Arg != "A" {
		t.Errorf("line 5 conds = %+v", li.Conds)
	}
}

func TestCommentMarkersInsideStrings(t *testing.T) {
	f := Analyze(`const char *s = "/* not a comment";` + "\nint after;\n")
	li, _ := f.LineAt(2)
	if li.InComment || li.CommentOnly {
		t.Errorf("string contents misparsed as comment: %+v", li)
	}
}

func TestIfZeroTracked(t *testing.T) {
	f := Analyze("#if 0\nint dead;\n#endif\n")
	li, _ := f.LineAt(2)
	if len(li.Conds) != 1 || li.Conds[0].Kind != CondIf || li.Conds[0].Arg != "0" {
		t.Errorf("conds = %+v", li.Conds)
	}
}

func TestMacroDefInsideConditional(t *testing.T) {
	src := `#ifdef CONFIG_X
#define GATED(v) ((v) + 1)
#endif
`
	f := Analyze(src)
	li, _ := f.LineAt(2)
	if !li.InMacroDef || li.MacroName != "GATED" {
		t.Errorf("line 2: %+v", li)
	}
	if len(li.Conds) != 1 || li.Conds[0].Arg != "CONFIG_X" {
		t.Errorf("line 2 conds = %+v", li.Conds)
	}
}

func TestEmptyAndEdgeFiles(t *testing.T) {
	if f := Analyze(""); len(f.Lines) != 0 {
		t.Errorf("empty file lines = %d", len(f.Lines))
	}
	if _, ok := Analyze("x\n").LineAt(2); ok {
		t.Error("LineAt past end should fail")
	}
	if _, ok := Analyze("x\n").LineAt(0); ok {
		t.Error("LineAt(0) should fail")
	}
	f := Analyze("no trailing newline")
	if len(f.Lines) != 1 || f.Lines[0].Text != "no trailing newline" {
		t.Errorf("lines = %+v", f.Lines)
	}
}

func TestDefineNameExtraction(t *testing.T) {
	tests := []struct{ arg, want string }{
		{"FOO 1", "FOO"},
		{"MUX(x) ((x))", "MUX"},
		{"BARE", "BARE"},
	}
	for _, tt := range tests {
		if got := defineName(tt.arg); got != tt.want {
			t.Errorf("defineName(%q) = %q, want %q", tt.arg, got, tt.want)
		}
	}
}

// A stack snapshot taken at one line must remain valid after later lines
// pop frames (regression guard for slice aliasing).
func TestCondStackNotAliased(t *testing.T) {
	src := `#ifdef A
int a1;
#ifdef B
int ab;
#endif
#ifdef C
int ac;
#endif
#endif
`
	f := Analyze(src)
	abLine, _ := f.LineAt(4)
	acLine, _ := f.LineAt(7)
	if abLine.Conds[1].Arg != "B" {
		t.Errorf("line 4 inner frame = %+v (aliased?)", abLine.Conds[1])
	}
	if acLine.Conds[1].Arg != "C" {
		t.Errorf("line 7 inner frame = %+v", acLine.Conds[1])
	}
}

func TestElifChainPriors(t *testing.T) {
	src := strings.Join([]string{
		"#ifdef A",         // 1
		"int a;",           // 2
		"#elif defined(B)", // 3
		"int b;",           // 4
		"#elif defined(C)", // 5
		"int c;",           // 6
		"#else",            // 7
		"int d;",           // 8
		"#endif",           // 9
		"",
	}, "\n")
	f := Analyze(src)

	fr := func(n int) CondFrame {
		li, ok := f.LineAt(n)
		if !ok || len(li.Conds) != 1 {
			t.Fatalf("line %d: want one frame, got %+v", n, li.Conds)
		}
		return li.Conds[0]
	}

	first := fr(2)
	if first.Kind != CondIfdef || len(first.Prior) != 0 {
		t.Errorf("opening frame: %+v", first)
	}
	second := fr(4)
	if second.Kind != CondElif || second.Arg != "defined(B)" {
		t.Errorf("second frame: %+v", second)
	}
	if len(second.Prior) != 1 || second.Prior[0] != (CondBranch{CondIfdef, "A"}) {
		t.Errorf("second frame priors: %+v", second.Prior)
	}
	third := fr(6)
	wantThird := []CondBranch{{CondIfdef, "A"}, {CondElif, "defined(B)"}}
	if len(third.Prior) != 2 || third.Prior[0] != wantThird[0] || third.Prior[1] != wantThird[1] {
		t.Errorf("third frame priors: %+v", third.Prior)
	}
	last := fr(8)
	if last.Kind != CondElse {
		t.Errorf("else frame: %+v", last)
	}
	wantElse := []CondBranch{{CondIfdef, "A"}, {CondElif, "defined(B)"}, {CondElif, "defined(C)"}}
	if len(last.Prior) != 3 {
		t.Fatalf("else frame priors: %+v", last.Prior)
	}
	for i, w := range wantElse {
		if last.Prior[i] != w {
			t.Errorf("else prior[%d] = %+v, want %+v", i, last.Prior[i], w)
		}
	}
	// The second branch's Prior slice must not have been clobbered when the
	// third branch extended the chain.
	if len(second.Prior) != 1 {
		t.Errorf("second frame priors mutated: %+v", second.Prior)
	}
}
