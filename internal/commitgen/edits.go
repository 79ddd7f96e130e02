// Package commitgen synthesizes the commit history the evaluation runs
// over: a long pre-window history (for the janitor study of paper §IV) and
// the v4.3→v4.4 window itself, with edit classes calibrated against the
// paper's measured distributions (Tables III-IV and §V-B).
package commitgen

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"jmake/internal/csrc"
	"jmake/internal/kernelgen"
)

// editClass describes where an edit must land.
type editClass int

const (
	// editPlain: unconditional code or defines — always compiled.
	editPlain editClass = iota + 1
	// editMacroBody: a continuation line of a multi-line macro.
	editMacroBody
	// editComment: a comment-only line.
	editComment
	// editEscape: a line inside the conditional region selected by guard.
	editEscape
	// editBothBranches: lines in both branches of a DEBUG ifdef/else pair.
	editBothBranches
	// editManyMacros: bulk-edit many #define lines (the 200+ mutation
	// outlier).
	editManyMacros
)

// guardSuffix maps site classes to the Kconfig-variable suffix of the
// guard commitgen must find.
func guardFor(site kernelgen.SiteClass) (kind csrc.CondKind, argMatch func(string) bool) {
	switch site {
	case kernelgen.SiteIfdefNotAllyes:
		return csrc.CondIfdef, func(a string) bool { return strings.HasSuffix(a, "_LEGACY") }
	case kernelgen.SiteDefconfigOnly:
		return csrc.CondIfdef, func(a string) bool { return strings.HasSuffix(a, "_EXT") }
	case kernelgen.SiteIfdefNever:
		return csrc.CondIfdef, func(a string) bool { return strings.HasSuffix(a, "_PHANTOM_GLUE") }
	case kernelgen.SiteHeaderPhantom:
		return csrc.CondIfdef, func(a string) bool { return strings.HasSuffix(a, "_PHANTOM_HDR") }
	case kernelgen.SiteIfdefModule:
		return csrc.CondIfdef, func(a string) bool { return a == "MODULE" }
	case kernelgen.SiteIfndef:
		return csrc.CondIfndef, func(a string) bool { return true }
	case kernelgen.SiteIfZero:
		return csrc.CondIf, func(a string) bool { return strings.TrimSpace(a) == "0" }
	case kernelgen.SiteArchQuirk:
		return csrc.CondIfdef, func(a string) bool { return strings.HasSuffix(a, "_QUIRK") }
	default:
		return 0, nil
	}
}

var (
	hexNumRe = regexp.MustCompile(`0x[0-9a-fA-F]+`)
	decNumRe = regexp.MustCompile(`\b[0-9]+\b`)
	// unusedMacroRe matches the deliberately-unused defines; plain edits
	// avoid them so only planned edits hit the unused-macro escape class.
	unusedMacroRe = regexp.MustCompile(`^#define\s+([A-Z0-9_]+_SPARE_MASK|RESERVED_FUTURE_MASK_[0-9]+)\s`)
)

// editableStmt reports whether a line holds a simple statement or define
// safe to renumber: a number assigned after '=', a hex literal, a return
// with a digit after it on its line, or a #define of a number. It is one
// left-to-right scan and answers exactly as the unanchored expression
//
//	=\s*-?[0-9]|0x[0-9a-fA-F]+|\breturn\b.*[0-9]|#define\s+[A-Za-z0-9_]+\s+-?[0-9]
//
// with RE2's \s ([\t\n\f\r ]), its ASCII \b and a '.' that stops at
// '\n', without the backtracking that expression costs on every
// candidate line of every edited file.
func editableStmt(line string) bool {
	afterReturn := false // a "return" word came earlier on this line
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c == '\n':
			afterReturn = false
		case isDigit(c):
			if afterReturn || c == '0' && i+2 < len(line) && line[i+1] == 'x' && isHexDigit(line[i+2]) {
				return true
			}
		case c == '=':
			if signedDigitAt(line, skipSpace(line, i+1)) {
				return true
			}
		case c == 'r':
			if strings.HasPrefix(line[i:], "return") && (i == 0 || !isWordByte(line[i-1])) &&
				(i+6 == len(line) || !isWordByte(line[i+6])) {
				afterReturn = true
			}
		case c == '#':
			if strings.HasPrefix(line[i+1:], "define") && definesNumber(line[i+7:]) {
				return true
			}
		}
	}
	return false
}

// definesNumber reports whether rest, the text after "#define", starts
// with whitespace, a name, whitespace and a digit, with an optional minus
// before the digit.
func definesNumber(rest string) bool {
	name := skipSpace(rest, 0)
	if name == 0 {
		return false
	}
	end := name
	for end < len(rest) && isWordByte(rest[end]) {
		end++
	}
	if end == name {
		return false
	}
	value := skipSpace(rest, end)
	return value > end && signedDigitAt(rest, value)
}

// skipSpace returns the index of the first byte at or after i that is
// not RE2 whitespace ([\t\n\f\r ]; no \v).
func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\f' || s[i] == '\r') {
		i++
	}
	return i
}

// signedDigitAt reports whether s holds a digit at i, or a minus and a
// digit.
func signedDigitAt(s string, i int) bool {
	if i < len(s) && s[i] == '-' {
		i++
	}
	return i < len(s) && isDigit(s[i])
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// isWordByte reports an ASCII word character, the only kind RE2's \b
// and [A-Za-z0-9_] know.
func isWordByte(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// bumpNumbers rewrites the last number on the line, guaranteeing a textual
// change.
func bumpNumbers(rng *rand.Rand, line string) (string, bool) {
	if loc := hexNumRe.FindStringIndex(line); loc != nil {
		old := line[loc[0]:loc[1]]
		nv := fmt.Sprintf("0x%02x", rng.Intn(0xff)+1)
		if nv == old {
			nv = fmt.Sprintf("0x%02x", (rng.Intn(0xfe)+2)^1)
		}
		return line[:loc[0]] + nv + line[loc[1]:], nv != old
	}
	if loc := decNumRe.FindStringIndex(line); loc != nil {
		old := line[loc[0]:loc[1]]
		nv := fmt.Sprintf("%d", rng.Intn(97)+1)
		if nv == old {
			nv = fmt.Sprintf("%d", rng.Intn(97)+101)
		}
		return line[:loc[0]] + nv + line[loc[1]:], true
	}
	return line, false
}

// editResult is a successfully computed file edit.
type editResult struct {
	content string
	// regions is the approximate number of distinct mutation groups the
	// edit spans (for calibrating the paper's mutation-count statistics).
	regions int
}

// editor applies class-targeted edits to file content.
type editor struct {
	rng *rand.Rand
}

// onlyIncludeGuards reports whether every enclosing conditional is an
// include guard (#ifndef *_H), which never excludes code in practice.
func onlyIncludeGuards(conds []csrc.CondFrame) bool {
	for _, c := range conds {
		if c.Kind != csrc.CondIfndef || !strings.HasSuffix(strings.TrimSpace(c.Arg), "_H") {
			return false
		}
	}
	return true
}

// lineEligible reports whether a line suits the requested class.
func lineEligible(li csrc.Line, class editClass, kind csrc.CondKind, argMatch func(string) bool) bool {
	switch class {
	case editPlain:
		if li.CommentOnly || li.InComment || li.InMacroDef || li.Directive != "" {
			// Unconditional #define lines are fine targets too.
			if !(li.Directive == "define" && onlyIncludeGuards(li.Conds) && !continuedDefine(li)) {
				return false
			}
		}
		if !onlyIncludeGuards(li.Conds) {
			return false
		}
		if t := strings.TrimSpace(li.Text); strings.HasPrefix(t, "#define") && unusedMacroRe.MatchString(t) {
			return false
		}
		return editableStmt(li.Text)
	case editMacroBody:
		return li.InMacroDef && li.Num != li.MacroStart && onlyIncludeGuards(li.Conds) &&
			editableStmt(li.Text)
	case editComment:
		return li.CommentOnly && strings.Contains(li.Text, "note:")
	case editEscape:
		// Statements and defines inside the guarded region both qualify; a
		// changed define there is equally invisible to the compiler.
		if li.CommentOnly || (li.Directive != "" && li.Directive != "define") || len(li.Conds) == 0 {
			return false
		}
		top := li.Conds[len(li.Conds)-1]
		return top.Kind == kind && argMatch(top.Arg) && editableStmt(li.Text)
	default:
		return false
	}
}

func continuedDefine(li csrc.Line) bool {
	return strings.HasSuffix(strings.TrimRight(li.Text, " \t"), "\\")
}

// apply edits content per the class; returns false when the file has no
// suitable site.
func (e *editor) apply(content string, class editClass, site kernelgen.SiteClass, regions int) (editResult, bool) {
	f := csrc.Analyze(content)
	lines := strings.Split(strings.TrimSuffix(content, "\n"), "\n")

	switch class {
	case editManyMacros:
		// Rewrite every register #define — one mutation per macro.
		n := 0
		for i, li := range f.Lines {
			if li.Directive == "define" && strings.Contains(li.Text, "CM_REG_") {
				if nl, ok := bumpNumbers(e.rng, li.Text); ok {
					lines[i] = nl
					n++
				}
			}
		}
		if n == 0 {
			return editResult{}, false
		}
		return editResult{content: joinLines(lines), regions: n}, true

	case editBothBranches:
		// Find a DEBUG ifdef/else pair and edit one line in each branch.
		ifLine, elseLine := -1, -1
		for _, li := range f.Lines {
			if li.CommentOnly || li.Directive != "" || len(li.Conds) == 0 {
				continue
			}
			top := li.Conds[len(li.Conds)-1]
			if !strings.HasSuffix(top.Arg, "_DEBUG") {
				continue
			}
			if top.Kind == csrc.CondIfdef && ifLine < 0 && editableStmt(li.Text) {
				ifLine = li.Num
			}
			if top.Kind == csrc.CondElse && elseLine < 0 && editableStmt(li.Text) {
				elseLine = li.Num
			}
		}
		if ifLine < 0 || elseLine < 0 {
			return editResult{}, false
		}
		ok1, ok2 := false, false
		lines[ifLine-1], ok1 = bumpOrAnnotate(e.rng, lines[ifLine-1])
		lines[elseLine-1], ok2 = bumpOrAnnotate(e.rng, lines[elseLine-1])
		if !ok1 || !ok2 {
			return editResult{}, false
		}
		return editResult{content: joinLines(lines), regions: 2}, true
	}

	var kind csrc.CondKind
	var argMatch func(string) bool
	if class == editEscape {
		if site == kernelgen.SiteUnusedMacro {
			for i, li := range f.Lines {
				if unusedMacroRe.MatchString(li.Text) {
					if nl, ok := bumpNumbers(e.rng, li.Text); ok {
						lines[i] = nl
						return editResult{content: joinLines(lines), regions: 1}, true
					}
				}
			}
			return editResult{}, false
		}
		kind, argMatch = guardFor(site)
		if argMatch == nil {
			return editResult{}, false
		}
	}

	// Collect eligible lines, then edit `regions` of them from distinct
	// mutation regions.
	var eligible []csrc.Line
	for _, li := range f.Lines {
		if lineEligible(li, class, kind, argMatch) {
			eligible = append(eligible, li)
		}
	}
	if len(eligible) == 0 {
		return editResult{}, false
	}
	if regions < 1 {
		regions = 1
	}
	e.rng.Shuffle(len(eligible), func(i, j int) {
		eligible[i], eligible[j] = eligible[j], eligible[i]
	})
	edited := 0
	usedRegions := make(map[string]bool)
	for _, li := range eligible {
		if edited >= regions {
			break
		}
		key := regionKeyOf(li)
		if usedRegions[key] {
			continue
		}
		var ok bool
		if class == editComment {
			lines[li.Num-1], ok = editCommentLine(e.rng, li.Text)
		} else {
			lines[li.Num-1], ok = bumpOrAnnotate(e.rng, lines[li.Num-1])
		}
		if !ok {
			continue
		}
		usedRegions[key] = true
		edited++
	}
	if edited == 0 {
		return editResult{}, false
	}
	return editResult{content: joinLines(lines), regions: edited}, true
}

// regionKeyOf groups lines the way the mutation engine will: by macro
// definition or conditional region.
func regionKeyOf(li csrc.Line) string {
	if li.InMacroDef {
		return fmt.Sprintf("m%d", li.MacroStart)
	}
	return fmt.Sprintf("r%d", li.Region)
}

// bumpOrAnnotate renumbers the line, or appends a trailing no-op change
// when it has no number.
func bumpOrAnnotate(rng *rand.Rand, line string) (string, bool) {
	if nl, ok := bumpNumbers(rng, line); ok {
		return nl, true
	}
	if strings.HasSuffix(strings.TrimRight(line, " \t"), ";") {
		return line + " /* adjusted */", true
	}
	return line, false
}

func editCommentLine(rng *rand.Rand, line string) (string, bool) {
	if nl, ok := bumpNumbers(rng, line); ok {
		return nl, true
	}
	return strings.Replace(line, "note:", "updated note:", 1), strings.Contains(line, "note:")
}

func joinLines(lines []string) string {
	return strings.Join(lines, "\n") + "\n"
}

// addUnusedHeaderMacro appends a never-used macro to a header — a .h
// change no .c compilation can witness.
func addUnusedHeaderMacro(rng *rand.Rand, content string) (string, bool) {
	f := csrc.Analyze(content)
	// Insert before the closing #endif of the include guard.
	for i := len(f.Lines) - 1; i >= 0; i-- {
		if f.Lines[i].Directive == "endif" {
			lines := strings.Split(strings.TrimSuffix(content, "\n"), "\n")
			nl := fmt.Sprintf("#define RESERVED_FUTURE_MASK_%d 0x%02x", rng.Intn(1000), rng.Intn(255)+1)
			out := append(lines[:i:i], append([]string{nl}, lines[i:]...)...)
			return joinLines(out), true
		}
	}
	return "", false
}
