package presence

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestFormulaFolding(t *testing.T) {
	a, b := Symbol("CONFIG_A"), Symbol("CONFIG_B")
	cases := []struct {
		got  Formula
		want string
	}{
		{And(a, True), "CONFIG_A"},
		{And(a, False), "false"},
		{Or(a, True), "true"},
		{Or(a, False), "CONFIG_A"},
		{Not(Not(a)), "CONFIG_A"},
		{Not(True), "false"},
		{And(a, b), "(CONFIG_A && CONFIG_B)"},
		{And(), "true"},
		{Or(), "false"},
		{Implies(a, b), "(!CONFIG_A || CONFIG_B)"},
	}
	for _, c := range cases {
		if got := c.got.String(); got != c.want {
			t.Errorf("got %s, want %s", got, c.want)
		}
	}
}

func TestEvalAndPartial(t *testing.T) {
	f := And(Symbol("A"), Or(Not(Symbol("B")), Symbol("C")))
	if !Eval(f, map[string]bool{"A": true, "C": true, "B": true}) {
		t.Error("A && (!B || C) under A,B,C should hold")
	}
	if Eval(f, map[string]bool{"A": true, "B": true}) {
		t.Error("A && (!B || C) under A,B should fail")
	}

	// Partial: knowing A=false decides the conjunction.
	v, known := EvalPartial(f, func(n string) (bool, bool) { return false, n == "A" })
	if !known || v {
		t.Errorf("EvalPartial with A=false = (%v,%v), want (false,true)", v, known)
	}
	// Knowing only B leaves the value open.
	if _, known := EvalPartial(f, func(n string) (bool, bool) { return true, n == "B" }); known {
		t.Error("EvalPartial should be undetermined when A unknown")
	}
}

func TestSubstituteAndSymbols(t *testing.T) {
	f := And(Symbol("A"), Or(Symbol("B"), Symbol("A")))
	got := Substitute(f, func(n string) (bool, bool) { return true, n == "A" })
	if got.String() != "true" {
		t.Errorf("Substitute(A=true) = %s", got)
	}
	if s := Symbols(f); !reflect.DeepEqual(s, []string{"A", "B"}) {
		t.Errorf("Symbols = %v", s)
	}
}

func TestSat(t *testing.T) {
	a, b := Symbol("A"), Symbol("B")
	for _, c := range []struct {
		f    Formula
		want SatResult
	}{
		{And(a, Not(a)), SatNo},
		{And(a, b), SatYes},
		{False, SatNo},
	} {
		if got := Decide(c.f); got != c.want {
			t.Errorf("Decide(%s) = %v, want %v", c.f, got, c.want)
		}
	}

	// Too many symbols: nothing proven either way.
	wide := False
	for i := 0; i < MaxSatSymbols+1; i++ {
		wide = Or(wide, Symbol(strings.Repeat("S", i+1)))
	}
	if got := Decide(wide); got != SatUnknown {
		t.Errorf("wide: Decide = %v, want unknown", got)
	}
	if assign, sat, exact := SatAssignment(wide); !sat || exact || assign != nil {
		t.Errorf("wide: SatAssignment = %v, %v, %v", assign, sat, exact)
	}

	assign, sat, exact := SatAssignment(And(a, Not(b)))
	if !sat || !exact || !assign["A"] || assign["B"] {
		t.Errorf("SatAssignment = %v, %v, %v", assign, sat, exact)
	}
	if _, sat, exact := SatAssignment(And(a, Not(a))); sat || !exact {
		t.Errorf("SatAssignment(A && !A): sat=%v exact=%v", sat, exact)
	}
}

func TestAnalyzeNesting(t *testing.T) {
	src := strings.Join([]string{
		"int always;",             // 1
		"#ifdef CONFIG_A",         // 2
		"int a;",                  // 3
		"#ifdef CONFIG_B",         // 4
		"int ab;",                 // 5
		"#endif",                  // 6
		"#endif",                  // 7
		"#if 0",                   // 8
		"int never;",              // 9
		"#endif",                  // 10
		"#ifndef CONFIG_A",        // 11
		"int nota;",               // 12
		"#elif defined(CONFIG_B)", // 13
		"int ab2;",                // 14
		"#else",                   // 15
		"int anotb;",              // 16
		"#endif",                  // 17
		"",
	}, "\n")
	f := Analyze("test.c", src)

	wants := map[int]string{
		1:  "true",
		3:  "CONFIG_A",
		5:  "(CONFIG_A && CONFIG_B)",
		9:  "false",
		12: "!CONFIG_A",
		14: "(CONFIG_A && CONFIG_B)",
		16: "(CONFIG_A && !CONFIG_B)",
	}
	for line, want := range wants {
		if got := f.LineCond(line).String(); got != want {
			t.Errorf("line %d: %s, want %s", line, got, want)
		}
	}

	if dead := f.DeadLines(); !reflect.DeepEqual(dead, []int{9}) {
		t.Errorf("DeadLines = %v, want [9]", dead)
	}
	// The #elif after #ifndef CONFIG_A carries the negation of the opening
	// branch — double negation folds back to CONFIG_A — and stays
	// satisfiable (A on, B on).
	if got := Decide(f.LineCond(14)); got != SatYes {
		t.Errorf("elif branch: %v, want sat", got)
	}
	// But "#elif defined(CONFIG_A)" after "#ifdef CONFIG_A" would be dead.
	f2 := Analyze("t.c", "#ifdef CONFIG_A\nint a;\n#elif defined(CONFIG_A)\nint b;\n#endif\n")
	if got := Decide(f2.LineCond(4)); got != SatNo {
		t.Errorf("contradictory elif: %v, want unsat", got)
	}
}

// TestFrames pins the per-branch view: outermost first, each frame's
// formula its own test plus the negated earlier branches of its chain,
// and a directive line outside the branch it opens.
func TestFrames(t *testing.T) {
	src := strings.Join([]string{
		"#ifdef CONFIG_A",         // 1
		"#if 0",                   // 2
		"int zero;",               // 3
		"#endif",                  // 4
		"#elif defined(CONFIG_B)", // 5
		"int b;",                  // 6
		"#else",                   // 7
		"int neither;",            // 8
		"#endif",                  // 9
		"",
	}, "\n")
	f := Analyze("t.c", src)
	render := func(n int) string {
		var parts []string
		for _, fr := range f.Frames(n) {
			parts = append(parts, fmt.Sprintf("%d:%s", fr.Line, fr.Cond))
		}
		return strings.Join(parts, " ")
	}
	for n, want := range map[int]string{
		1:  "",
		2:  "1:CONFIG_A",
		3:  "1:CONFIG_A 2:false",
		5:  "",
		6:  "5:(!CONFIG_A && CONFIG_B)",
		7:  "",
		8:  "7:(!CONFIG_A && !CONFIG_B)",
		99: "",
	} {
		if got := render(n); got != want {
			t.Errorf("Frames(%d) = %q, want %q", n, got, want)
		}
	}
	// LineCond is the conjunction of the frames.
	for n := 1; n <= f.Len(); n++ {
		conj := True
		for _, fr := range f.Frames(n) {
			conj = And(conj, fr.Cond)
		}
		if got := f.LineCond(n); got.String() != conj.String() {
			t.Errorf("line %d: LineCond %s, frames conjoin to %s", n, got, conj)
		}
	}
}

func TestAnalyzeFileDefinedMacros(t *testing.T) {
	// The file defines CONFIG_LOCAL itself, so its conditions must not be
	// treated as configuration symbols.
	src := "#define CONFIG_LOCAL 1\n#ifdef CONFIG_LOCAL\nint x;\n#endif\n#ifdef CONFIG_REAL\nint y;\n#endif\n"
	f := Analyze("t.c", src)
	if got := f.LineCond(3).String(); got != "defined(CONFIG_LOCAL)" {
		t.Errorf("file-defined macro cond = %s", got)
	}
	if got := f.LineCond(6).String(); got != "CONFIG_REAL" {
		t.Errorf("real config cond = %s", got)
	}
	if !f.Defined["CONFIG_LOCAL"] {
		t.Error("Defined should record CONFIG_LOCAL")
	}
}

func TestFromCondExprOpaqueDiscipline(t *testing.T) {
	// defined(FOO) and bare FOO must stay distinct variables: merging them
	// would wrongly prove `defined(FOO) && !FOO` unsatisfiable.
	f := Analyze("t.c", "#if defined(FOO) && !FOO\nint x;\n#endif\n")
	cond := f.LineCond(2)
	if got := Decide(cond); got != SatYes {
		t.Errorf("defined(FOO) && !FOO: %v, want sat (cond %s)", got, cond)
	}
	if syms := Symbols(cond); len(syms) != 2 {
		t.Errorf("want two distinct variables, got %v", syms)
	}

	// Arithmetic degrades to one opaque variable per distinct subtree.
	f2 := Analyze("t.c", "#if CONFIG_X > 2\nint x;\n#elif CONFIG_X > 2\nint y;\n#endif\n")
	if got := Decide(f2.LineCond(4)); got != SatNo {
		t.Errorf("repeated opaque comparison in elif should be unsat, got %v (cond %s)",
			got, f2.LineCond(4))
	}
}

func TestAnalyzeMalformedNeverPanics(t *testing.T) {
	srcs := []string{
		"#if ((\nint x;\n#endif\n",
		"#elif FOO\n#endif\n#else\n",
		"#ifdef\nint x;\n#endif\n",
		"#if 1 ? 2\nint x;\n#endif\n",
	}
	for _, src := range srcs {
		f := Analyze("t.c", src)
		for i := 1; i <= f.Len(); i++ {
			_ = f.LineCond(i).String()
			_ = Decide(f.LineCond(i))
		}
	}
}

func TestIncludes(t *testing.T) {
	src := `#include <linux/kernel.h>
#include "local.h"
  #  include <spaced/form.h>
#include BAD_COMPUTED_INCLUDE
#include <unterminated
#include ""
#define NOT_AN_INCLUDE "x.h"
int v; /* #include <comment.h> is not a directive */
#ifdef FOO
#include <cond/gated.h>
#endif
`
	got := Includes(src)
	want := []Include{
		{Target: "linux/kernel.h", Angle: true, Line: 1},
		{Target: "local.h", Angle: false, Line: 2},
		{Target: "spaced/form.h", Angle: true, Line: 3},
		{Target: "cond/gated.h", Angle: true, Line: 10},
	}
	if len(got) != len(want) {
		t.Fatalf("Includes = %+v, want %d entries", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Includes[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
