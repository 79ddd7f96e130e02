package presence

import (
	"fmt"
	"sort"
	"strings"

	"jmake/internal/cpp"
	"jmake/internal/csrc"
)

// File is the presence analysis of one source file: a formula per physical
// line, derived from the #if nesting stack. Kbuild gating is not included —
// it depends on the architecture's Makefile walk and is conjoined by the
// caller (see internal/core and cmd/jmake-lint). A File is read-only once
// Analyze returns.
type File struct {
	Path string
	// Src is the line-level analysis the formulas were built from.
	Src *csrc.File
	// conds[i] is the condition of 1-based line i+1.
	conds []Formula
	// branch maps the line of each branch's opening directive to the
	// branch's formula.
	branch map[int]Formula
	// Defined holds macro names the file itself #defines or #undefs.
	// Conditions over these names cannot be resolved from configuration
	// alone, so the analysis keeps them opaque even when they look like
	// CONFIG_* options.
	Defined map[string]bool
}

// Frame is one branch enclosing a line: the conditional frame and the
// branch's formula, its own test conjoined with the negation of every
// earlier branch in its chain.
type Frame struct {
	csrc.CondFrame
	Cond Formula
}

// Analyze computes a presence condition for every line of content. It never
// fails: malformed directives degrade to opaque free variables, keeping the
// result an over-approximation.
func Analyze(path, content string) *File {
	return FromLines(path, csrc.Analyze(content))
}

// FromLines is Analyze over a line analysis already made of the file's
// content, which the File keeps as its Src.
func FromLines(path string, sf *csrc.File) *File {
	f := &File{
		Path:    path,
		Src:     sf,
		conds:   make([]Formula, len(sf.Lines)),
		branch:  make(map[int]Formula),
		Defined: make(map[string]bool),
	}
	for _, li := range sf.Lines {
		switch li.Directive {
		case "define":
			if li.MacroName != "" {
				f.Defined[li.MacroName] = true
			}
		case "undef":
			if name := firstIdent(li.DirectiveArg); name != "" {
				f.Defined[name] = true
			}
		}
	}
	// Frames are shared between lines, so one formula per opening directive
	// line covers every line of its branch.
	for i, li := range sf.Lines {
		cond := True
		for _, fr := range li.Conds {
			fc, ok := f.branch[fr.Line]
			if !ok {
				fc = f.frameFormula(fr)
				f.branch[fr.Line] = fc
			}
			// A conditional directive line carries the frame it just opened,
			// but the directive itself is processed whenever the *enclosing*
			// region is — only the branch body is governed by the new frame.
			if fr.Line != li.Num {
				cond = And(cond, fc)
			}
		}
		f.conds[i] = cond
	}
	return f
}

// Frames returns the branches enclosing 1-based line n, outermost first,
// under the rule LineCond applies: a conditional directive line is not
// inside the branch it opens. Out-of-range lines have none.
func (f *File) Frames(n int) []Frame {
	li, ok := f.Src.LineAt(n)
	if !ok {
		return nil
	}
	out := make([]Frame, 0, len(li.Conds))
	for _, fr := range li.Conds {
		if fr.Line != n {
			out = append(out, Frame{CondFrame: fr, Cond: f.branch[fr.Line]})
		}
	}
	return out
}

// Include is one #include directive of a source file. The reverse
// dependency index (internal/incr) uses these as its static include
// edges; extraction is deliberately condition-blind — an include behind a
// dead #if still creates an edge, keeping the index an over-approximation
// the same way the line formulas are.
type Include struct {
	// Target is the include operand without its delimiters: `<linux/foo.h>`
	// yields Target "linux/foo.h" with Angle true, `"foo.h"` yields
	// Target "foo.h" with Angle false.
	Target string
	Angle  bool
	// Line is the 1-based directive line.
	Line int
}

// Includes extracts every #include directive from content. Malformed
// operands (no recognizable delimiter) are skipped; like Analyze, this
// never fails.
func Includes(content string) []Include {
	sf := csrc.Analyze(content)
	var out []Include
	for _, li := range sf.Lines {
		if li.Directive != "include" {
			continue
		}
		arg := strings.TrimSpace(li.DirectiveArg)
		var inc Include
		switch {
		case strings.HasPrefix(arg, "<"):
			end := strings.IndexByte(arg, '>')
			if end <= 1 {
				continue
			}
			inc = Include{Target: arg[1:end], Angle: true, Line: li.Num}
		case strings.HasPrefix(arg, "\""):
			end := strings.IndexByte(arg[1:], '"')
			if end <= 0 {
				continue
			}
			inc = Include{Target: arg[1 : 1+end], Line: li.Num}
		default:
			continue
		}
		out = append(out, inc)
	}
	return out
}

// LineCond returns the presence condition of 1-based line n. Out-of-range
// lines are True: a line outside the file is outside every conditional.
func (f *File) LineCond(n int) Formula {
	if n < 1 || n > len(f.conds) {
		return True
	}
	return f.conds[n-1]
}

// Len returns the number of analyzed lines.
func (f *File) Len() int { return len(f.conds) }

// frameFormula is the controlling condition of one conditional frame,
// including the negation of earlier branches in its chain.
func (f *File) frameFormula(fr csrc.CondFrame) Formula {
	prior := make([]cpp.PriorBranch, len(fr.Prior))
	for i, pb := range fr.Prior {
		prior[i] = cpp.PriorBranch{Kind: pb.Kind.String(), Arg: pb.Arg}
	}
	ce, err := cpp.BranchCondExpr(fr.Kind.String(), fr.Arg, prior)
	if err != nil {
		// Unparseable condition: a unique free variable keeps both branches
		// possible.
		return Symbol(fmt.Sprintf("?cond@%d", fr.Line))
	}
	return FromCondExpr(ce, f.Defined)
}

// FromCondExpr turns a symbolic #if expression into a boolean formula.
// Boolean structure (&&, ||, !, ?:) is preserved. CONFIG_* identifiers and
// defined(CONFIG_*) tests become the same configuration symbol: autoconf
// defines CONFIG_X to 1 exactly when option X is y (and CONFIG_X_MODULE
// when X is m), so "defined" and "nonzero" coincide for them. Everything
// whose truth is not derivable from configuration alone — arithmetic,
// comparisons, non-CONFIG macros, and names the file itself (re)defines —
// becomes an opaque free symbol. Opaque "defined(FOO)" and value "?FOO"
// variables are deliberately kept distinct: merging them would wrongly
// prove `#if defined(FOO) && !FOO` unsatisfiable.
func FromCondExpr(e cpp.CondExpr, fileDefined map[string]bool) Formula {
	switch n := e.(type) {
	case cpp.CondNum:
		if n.Val != 0 {
			return True
		}
		return False
	case cpp.CondDefined:
		if isConfigMacro(n.Name) && !fileDefined[n.Name] {
			return Symbol(n.Name)
		}
		return Symbol("defined(" + n.Name + ")")
	case cpp.CondIdent:
		if isConfigMacro(n.Name) && !fileDefined[n.Name] {
			return Symbol(n.Name)
		}
		return Symbol("?" + n.Name)
	case cpp.CondUnary:
		if n.Op == "!" {
			return Not(FromCondExpr(n.X, fileDefined))
		}
		if n.Op == "+" {
			return FromCondExpr(n.X, fileDefined)
		}
		return opaque(e)
	case cpp.CondBinary:
		switch n.Op {
		case "&&":
			return And(FromCondExpr(n.L, fileDefined), FromCondExpr(n.R, fileDefined))
		case "||":
			return Or(FromCondExpr(n.L, fileDefined), FromCondExpr(n.R, fileDefined))
		}
		return opaque(e)
	case cpp.CondTernary:
		c := FromCondExpr(n.C, fileDefined)
		t := FromCondExpr(n.T, fileDefined)
		fls := FromCondExpr(n.F, fileDefined)
		return Or(And(c, t), And(Not(c), fls))
	}
	return opaque(e)
}

// opaque renders a subtree the boolean layer cannot decompose into a
// deterministic free variable. Identical subtrees share one variable, which
// is sound and lets `#if X > 2` agree with itself across lines.
func opaque(e cpp.CondExpr) Formula { return Symbol("?" + e.String()) }

// isConfigMacro matches the macro spelling of configuration options.
func isConfigMacro(name string) bool { return strings.HasPrefix(name, "CONFIG_") }

// firstIdent extracts the leading identifier of a directive argument.
func firstIdent(arg string) string {
	arg = strings.TrimSpace(arg)
	for i := 0; i < len(arg); i++ {
		c := arg[i]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || (i > 0 && c >= '0' && c <= '9') {
			continue
		}
		return arg[:i]
	}
	return arg
}

// Dump renders the analysis in the form the presence golden test compares
// against its golden files: one line per source line that sits under a
// non-trivial condition, plus a trailing "dead:" line listing lines whose
// stack condition alone is unsatisfiable. The output is deterministic.
func (f *File) Dump() string {
	var b strings.Builder
	var dead []int
	for i, cond := range f.conds {
		if cond == True {
			continue
		}
		fmt.Fprintf(&b, "%4d: %s\n", i+1, cond.String())
		if Decide(cond) == SatNo {
			dead = append(dead, i+1)
		}
	}
	if len(dead) > 0 {
		fmt.Fprintf(&b, "dead: %s\n", joinInts(dead))
	}
	return b.String()
}

// DeadLines returns the 1-based lines whose stack condition is provably
// unsatisfiable (exact answers only).
func (f *File) DeadLines() []int {
	var dead []int
	for i, cond := range f.conds {
		if cond == True {
			continue
		}
		if Decide(cond) == SatNo {
			dead = append(dead, i+1)
		}
	}
	sort.Ints(dead)
	return dead
}

// Region is a maximal run of consecutive lines sharing one non-trivial
// presence condition. Because frames are shared, every line of a branch
// body holds the identical Formula value, so grouping by equality yields
// exactly the preprocessor's block structure. Directive lines themselves
// (#if/#endif) carry the enclosing condition and are not part of the
// region they delimit.
type Region struct {
	Start, End int // 1-based inclusive line range
	Cond       Formula
}

// Regions returns the file's conditional blocks in line order: one Region
// per maximal run of lines whose condition is identical and not True.
func (f *File) Regions() []Region {
	var regs []Region
	for i := 0; i < len(f.conds); i++ {
		cond := f.conds[i]
		if cond == True {
			continue
		}
		j := i
		for j+1 < len(f.conds) && f.conds[j+1] == cond {
			j++
		}
		regs = append(regs, Region{Start: i + 1, End: j + 1, Cond: cond})
		i = j
	}
	return regs
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, " ")
}
