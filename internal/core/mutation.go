// Package core implements JMake itself: mutation of changed lines,
// architecture and configuration selection, the .c and .h file processing
// pipelines, and the escape analysis that explains why a changed line was
// never subjected to the compiler (paper §III and Table IV).
package core

import (
	"fmt"
	"sort"
	"strings"

	"jmake/internal/csrc"
)

// MutationMarker is the invalid character prefixed to every mutation. The
// C lexer rejects it (so a mutated file can never reach a .o), while the
// preprocessor passes it through (so it can be found in the .i), which is
// the central trick of the paper (§III-A).
const MutationMarker = "@"

// Mutation is one inserted token of the form @"kind:file:line".
type Mutation struct {
	// ID is the exact text searched for in .i files.
	ID string
	// Kind is "define" for macro-definition mutations, "other" otherwise.
	Kind string
	// File and Line locate the (first) changed line this mutation certifies.
	File string
	Line int
	// CoversLines are all changed lines certified by this mutation (same
	// macro definition or same conditional region).
	CoversLines []int
	// MacroName is set for define mutations.
	MacroName string
}

func mutationID(kind, file string, line int) string {
	return fmt.Sprintf("%s%q", MutationMarker, fmt.Sprintf("%s:%s:%d", kind, file, line))
}

// MutateResult is the outcome of mutating one file.
type MutateResult struct {
	// Content is the mutated file text.
	Content string
	// Mutations lists the inserted mutations.
	Mutations []Mutation
	// CommentOnly is true when every changed line was inside a comment, so
	// no mutations were needed (the change is trivially irrelevant to the
	// compiler, paper §III-B).
	CommentOnly bool
	// ChangedMacros lists macro names whose definitions were changed, used
	// as hints when hunting .c files for a changed header (paper §III-E).
	ChangedMacros []string

	// src is the line analysis of the unmutated content that placed the
	// mutations; the checker builds the file's presence formulas from it.
	src *csrc.File
}

// Mutate inserts mutations into content (the post-patch file at path) so
// that every changed line's compilation is witnessed by a unique token in
// the .i file. Placement follows paper §III-B:
//
//   - comment lines need no mutation;
//   - one mutation per changed macro definition: appended to the #define
//     line (before a trailing backslash) when the first change is on that
//     line, otherwise on a fresh continuation line before the first
//     changed line;
//   - one mutation per conditional region otherwise, on a fresh line
//     before the first changed line of the region — or after the end of a
//     comment when the changed line begins inside one.
func Mutate(path, content string, changedLines []int) MutateResult {
	f := csrc.Analyze(content)
	lines := sorted(changedLines)

	type group struct {
		kind   string // "define" | "other"
		first  csrc.Line
		covers []int
		macro  string
	}
	groups := make(map[string]*group)
	var order []string
	anyCode := false
	seenMacro := make(map[string]bool)
	var changedMacros []string

	for _, n := range lines {
		li, ok := f.LineAt(n)
		if !ok {
			// A changed line beyond EOF (pure removal at end of file): treat
			// as the last line, or skip for an empty file.
			if len(f.Lines) == 0 {
				continue
			}
			li, _ = f.LineAt(len(f.Lines))
		}
		if li.CommentOnly || (li.InComment && li.CommentEndCol < 0) {
			continue // entirely comment: never processed by the compiler
		}
		anyCode = true
		var key string
		g := &group{first: li}
		switch {
		case li.InMacroDef:
			key = fmt.Sprintf("m:%d", li.MacroStart)
			g.kind = "define"
			g.macro = li.MacroName
			if !seenMacro[li.MacroName] {
				seenMacro[li.MacroName] = true
				changedMacros = append(changedMacros, li.MacroName)
			}
		default:
			key = fmt.Sprintf("r:%d", li.Region)
			g.kind = "other"
		}
		if existing, ok := groups[key]; ok {
			existing.covers = append(existing.covers, li.Num)
			continue
		}
		g.covers = []int{li.Num}
		groups[key] = g
		order = append(order, key)
	}

	if !anyCode {
		return MutateResult{Content: content, CommentOnly: len(lines) > 0, ChangedMacros: changedMacros, src: f}
	}

	// Build insertions, applied bottom-up so line numbers stay valid.
	type insertion struct {
		afterLine int    // insert new line after this 1-based line (0 = top)
		newLine   string // full new line, or "" when modifying in place
		modLine   int    // when >0, replace this line with modText
		modText   string
	}
	var ins []insertion
	var muts []Mutation

	for _, key := range order {
		g := groups[key]
		li := g.first
		mut := Mutation{
			Kind:        g.kind,
			File:        path,
			Line:        li.Num,
			CoversLines: g.covers,
			MacroName:   g.macro,
		}
		mut.ID = mutationID(g.kind, path, li.Num)
		muts = append(muts, mut)

		if g.kind == "define" {
			if li.Num == li.MacroStart {
				// Change on the #define line itself: append the mutation at
				// end of line, before any continuation backslash.
				text := li.Text
				trimmed := strings.TrimRight(text, " \t")
				if strings.HasSuffix(trimmed, "\\") {
					base := strings.TrimRight(trimmed[:len(trimmed)-1], " \t")
					ins = append(ins, insertion{modLine: li.Num, modText: base + " " + mut.ID + " \\"})
				} else {
					ins = append(ins, insertion{modLine: li.Num, modText: text + " " + mut.ID})
				}
			} else {
				// Change on a continuation line: new line with only the
				// mutation and a continuation character, before the first
				// changed line.
				ins = append(ins, insertion{afterLine: li.Num - 1, newLine: mut.ID + " \\"})
			}
			continue
		}
		// Non-macro code.
		if li.InComment && li.CommentEndCol >= 0 {
			// The changed line starts inside a comment ending here: place
			// the mutation right after the comment's end.
			text := li.Text
			ins = append(ins, insertion{modLine: li.Num,
				modText: text[:li.CommentEndCol] + " " + mut.ID + text[li.CommentEndCol:]})
			continue
		}
		ins = append(ins, insertion{afterLine: li.Num - 1, newLine: mut.ID})
	}

	// Apply insertions bottom-up.
	sort.SliceStable(ins, func(i, j int) bool {
		li := ins[i].modLine
		if li == 0 {
			li = ins[i].afterLine
		}
		lj := ins[j].modLine
		if lj == 0 {
			lj = ins[j].afterLine
		}
		return li > lj
	})
	outLines := strings.Split(strings.TrimSuffix(content, "\n"), "\n")
	for _, in := range ins {
		if in.modLine > 0 {
			outLines[in.modLine-1] = in.modText
			continue
		}
		outLines = append(outLines[:in.afterLine],
			append([]string{in.newLine}, outLines[in.afterLine:]...)...)
	}
	return MutateResult{
		Content:       strings.Join(outLines, "\n") + "\n",
		Mutations:     muts,
		ChangedMacros: changedMacros,
		src:           f,
	}
}

func sorted(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	sort.Ints(out)
	return out
}
