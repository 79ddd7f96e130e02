package core

import (
	"strings"

	"jmake/internal/csrc"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/presence"
)

// classifyEscapes diagnoses why each uncovered mutation never reached the
// compiler, reproducing the taxonomy of Table IV mechanically: the
// presence formulas of the changed line's enclosing branches are read
// against the Kconfig database and the host allyesconfig valuation.
func (c *Checker) classifyEscapes(fs *fileState) []Escape {
	pf := presenceOf(fs)
	host := newHostAllyes(c)
	var out []Escape
	for _, m := range fs.pending() {
		if m.dead {
			continue // reported as statically dead, not as an escape
		}
		out = append(out, Escape{Mutation: m.mut, Reason: host.classify(pf, fs, m)})
	}
	return out
}

// hostAllyes is the host allyesconfig as the classifier reads it: MODULE
// is undefined, and an option is on when some architecture declares it
// and its host value is not n.
type hostAllyes struct {
	c      *Checker
	kt     *kconfig.Tree   // nil when the host Kconfig is unavailable
	allyes *kconfig.Config // nil when the valuation failed
}

// newHostAllyes fetches the host valuation once; the classifier reads
// every value of the file from this one fetch.
func newHostAllyes(c *Checker) hostAllyes {
	h := hostAllyes{c: c}
	if arch, ok := c.arches[kbuild.HostArch]; ok {
		if kt, err := c.configs.KconfigTree(c.tree, arch); err == nil {
			h.kt = kt
			if cfg, _, err := c.configs.Get(c.tree, arch, ConfigChoice{Kind: ConfigAllYes}, nil); err == nil {
				h.allyes = cfg
			}
		}
	}
	return h
}

// option reports whether Kconfig option name is declared anywhere and
// whether the host allyesconfig turns it on.
func (h hostAllyes) option(name string) (declared, on bool) {
	if h.kt == nil {
		return false, false
	}
	if h.kt.Symbol(name) != nil {
		return true, h.allyes != nil && h.allyes.Value(name) != kconfig.No
	}
	// Not in the host tree; another architecture may declare it (that is
	// precisely the cross-arch case). Check the others before concluding
	// "never set in the kernel".
	for _, a := range h.c.arches {
		if a.Name == kbuild.HostArch {
			continue
		}
		if akt, err := h.c.configs.KconfigTree(h.c.tree, a); err == nil && akt.Symbol(name) != nil {
			return true, false
		}
	}
	return false, false
}

// know resolves a formula symbol under the host allyesconfig; opaque
// symbols stay unknown.
func (h hostAllyes) know(sym string) (value, known bool) {
	if isModuleSymbol(sym) {
		return false, true
	}
	if !presence.IsConfigSymbol(sym) {
		return false, false
	}
	_, on := h.option(strings.TrimPrefix(sym, "CONFIG_"))
	return on, true
}

func isModuleSymbol(sym string) bool { return sym == "defined(MODULE)" || sym == "?MODULE" }

func (h hostAllyes) classify(pf *presence.File, fs *fileState, m *mutEntry) EscapeReason {
	frames := pf.Frames(m.mut.Line)

	// An unconditional macro definition whose mutation never surfaced means
	// no compiled code expands the macro. If the file does reference the
	// macro, the reference itself must sit in dead code; keep the verdict
	// only when no use exists at all (this also keeps the §VII prescan from
	// flagging macros that are plainly used).
	if m.mut.Kind == "define" && len(frames) == 0 {
		li, ok := pf.Src.LineAt(m.mut.Line)
		if ok && !macroUsedInFile(pf.Src, li.MacroName, li.MacroStart) {
			return EscapeUnusedMacro
		}
		return EscapeOther
	}

	// Walk enclosing branches innermost-first; the innermost one that
	// explains exclusion wins.
	for i := len(frames) - 1; i >= 0; i-- {
		if r, found := h.branchReason(pf, fs, frames[i]); found {
			return r
		}
	}
	if m.mut.Kind == "define" {
		return EscapeUnusedMacro
	}
	return EscapeOther
}

// branchReason explains a miss through one enclosing branch. A branch the
// host allyesconfig takes, or whose formula it cannot decide, is not the
// reason; otherwise the formula's symbols name it, in Table IV's order of
// precedence.
func (h hostAllyes) branchReason(pf *presence.File, fs *fileState, fr presence.Frame) (EscapeReason, bool) {
	if fr.Cond == presence.False {
		return EscapeIfZero, true
	}
	if v, known := presence.EvalPartial(fr.Cond, h.know); v || !known {
		return EscapeOther, false
	}
	undeclared, off := false, false
	for _, sym := range presence.Symbols(fr.Cond) {
		if isModuleSymbol(sym) {
			return EscapeIfdefModule, true
		}
		if presence.IsConfigSymbol(sym) {
			declared, on := h.option(strings.TrimPrefix(sym, "CONFIG_"))
			undeclared = undeclared || !declared
			off = off || declared && !on
		}
	}
	switch {
	case undeclared:
		return EscapeIfdefNeverSet, true
	case siblingChanged(pf.Src, fs, fr.CondFrame):
		return EscapeBothBranches, true
	case off:
		return EscapeIfdefNotAllyes, true
	}
	return EscapeIfndefOrElse, true
}

// macroUsedInFile reports whether name occurs as a token outside its own
// definition (starting at defStart).
func macroUsedInFile(f *csrc.File, name string, defStart int) bool {
	if name == "" {
		return false
	}
	for _, li := range f.Lines {
		if li.InMacroDef && li.MacroStart == defStart {
			continue
		}
		text := li.Text
		for {
			i := strings.Index(text, name)
			if i < 0 {
				break
			}
			beforeOK := i == 0 || !isIdentByte(text[i-1])
			after := i + len(name)
			afterOK := after >= len(text) || !isIdentByte(text[after])
			if beforeOK && afterOK {
				return true
			}
			text = text[i+len(name):]
		}
	}
	return false
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// siblingChanged reports whether the patch also changed the opposite
// branch of fr's conditional — the "change under both #ifdef and #else"
// case of Table IV, which no single configuration can cover.
func siblingChanged(f *csrc.File, fs *fileState, fr csrc.CondFrame) bool {
	for _, m := range fs.muts {
		li, ok := f.LineAt(m.mut.Line)
		if !ok || len(li.Conds) == 0 {
			continue
		}
		top := li.Conds[len(li.Conds)-1]
		if top.Line == fr.Line {
			continue // same branch
		}
		// Same controlling variable, different branch kind.
		if strings.TrimSpace(top.Arg) == strings.TrimSpace(fr.Arg) && top.Kind != fr.Kind {
			return true
		}
	}
	return false
}
