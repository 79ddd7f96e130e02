package cpp

import (
	"fmt"
	"path"
	"strconv"
	"strings"
)

// Source supplies file contents to the preprocessor. fstree.Tree satisfies
// it via a small adapter (see TreeSource in the kbuild package).
type Source interface {
	// ReadHashed returns the content of path, fstree.Hash of that
	// content, which keys the token cache, and whether path exists. A
	// tree source hands out each file version's memoized hash.
	ReadHashed(path string) (content string, hash uint64, ok bool)
}

// Options configure one preprocessing run.
type Options struct {
	// IncludeDirs are searched in order for <...> includes, and after the
	// including file's directory for "..." includes.
	IncludeDirs []string
	// Defines are predefined object-like macros (name -> replacement text),
	// e.g. the CONFIG_* set generated by kconfig plus arch built-ins.
	Defines map[string]string
	// Predefined is a pre-lexed, shareable form of Defines. When set it
	// takes precedence over Defines: the run resolves the shared macro
	// set directly instead of lexing every body again. Build one per
	// (arch, config, MODULE) valuation and reuse it across files.
	Predefined *Predefined
	// MaxDepth bounds include nesting; 0 means the default (64).
	MaxDepth int
	// Cache memoizes per-file lexing across Preprocess calls. Optional;
	// share one cache across the runs of an evaluation.
	Cache *TokenCache
}

// Result is the outcome of a successful preprocessing run. On error,
// Preprocess still returns Inputs and Missing for the files probed before
// the failure, so result caches can fingerprint failed runs too.
type Result struct {
	// Output is the .i text, with gcc-style line markers.
	Output string
	// InputLines counts the logical source lines processed across all files,
	// the dominant term of the paper's .i-generation cost model (Fig 4b).
	InputLines int
	// Includes counts files entered, including the root file.
	Includes int
	// Warnings holds #warning texts and non-fatal diagnostics.
	Warnings []string
	// Inputs lists every file whose content the run consumed — the root
	// file and each include entered — in first-use order with duplicates
	// removed. Together with Missing it delimits the include closure: any
	// change to these contents can change the output.
	Inputs []string
	// Missing lists paths probed but absent (failed include-dir
	// candidates). Creating one of these files can change include
	// resolution, so they are part of a sound cache fingerprint.
	Missing []string
}

// Error is a positioned preprocessing failure.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

const defaultMaxDepth = 64

// cond is one entry of the conditional-compilation stack.
type cond struct {
	parentActive bool
	active       bool
	taken        bool
	sawElse      bool
}

// pp is the preprocessor state for one run.
type pp struct {
	src  Source
	opts Options
	// pre is the shared initial macro set; macros holds run-local
	// definitions layered over it, with a nil value as an #undef
	// tombstone shadowing a predefined macro. All lookups go through
	// macroFor so the two levels compose.
	pre    *Predefined
	macros map[string]*Macro

	out     strings.Builder
	scratch []byte // reused by emitMarker
	// lineBuf holds the Tokens of the one line being expanded, written
	// or evaluated (see lineTokens).
	lineBuf    []Token
	conds      []cond
	includes   int
	inputLines int
	warnings   []string

	curFile  string
	curLine  int
	lastFile string
	lastLine int

	// pragmaOnce records files guarded by #pragma once.
	pragmaOnce map[string]bool
	// counter backs the __COUNTER__ built-in.
	counter int
	// inCond is set while a #if / #elif expression is being expanded: the
	// operand of a `defined` that expansion produces then stays unexpanded.
	inCond bool

	// inputs/missing record the first outcome of every file probe, for
	// Result.Inputs / Result.Missing.
	inputs    []string
	missing   []string
	probeSeen map[string]bool
}

// readFile reads through the source, recording each path's first probe
// outcome so the include closure can be fingerprinted.
func (p *pp) readFile(path string) (string, uint64, bool) {
	content, hash, ok := p.src.ReadHashed(path)
	if !p.probeSeen[path] {
		p.probeSeen[path] = true
		if ok {
			p.inputs = append(p.inputs, path)
		} else {
			p.missing = append(p.missing, path)
		}
	}
	return content, hash, ok
}

func (p *pp) errf(format string, args ...any) error {
	return &Error{File: p.curFile, Line: p.curLine, Msg: fmt.Sprintf(format, args...)}
}

// Preprocess runs the preprocessor on path, producing the .i text.
func Preprocess(src Source, filePath string, opts Options) (Result, error) {
	pre := opts.Predefined
	if pre == nil && len(opts.Defines) > 0 {
		pre = NewPredefined(opts.Defines)
	}
	p := &pp{src: src, opts: opts, pre: pre, macros: make(map[string]*Macro),
		pragmaOnce: make(map[string]bool), probeSeen: make(map[string]bool)}
	if p.opts.MaxDepth == 0 {
		p.opts.MaxDepth = defaultMaxDepth
	}
	if err := p.processFile(filePath, 0); err != nil {
		return Result{Inputs: p.inputs, Missing: p.missing}, err
	}
	if len(p.conds) != 0 {
		return Result{Inputs: p.inputs, Missing: p.missing}, p.errf("unterminated #if")
	}
	return Result{
		Output:     p.out.String(),
		InputLines: p.inputLines,
		Includes:   p.includes,
		Warnings:   p.warnings,
		Inputs:     p.inputs,
		Missing:    p.missing,
	}, nil
}

// macroFor resolves name against the run-local layer first (where a nil
// entry is an #undef tombstone), then the shared predefined set.
func (p *pp) macroFor(name string) (*Macro, bool) {
	if m, ok := p.macros[name]; ok {
		return m, m != nil
	}
	if p.pre != nil {
		if m, ok := p.pre.macros[name]; ok {
			return m, true
		}
	}
	return nil, false
}

func (p *pp) active() bool {
	return len(p.conds) == 0 || p.conds[len(p.conds)-1].active
}

func (p *pp) emitMarker(line int, file string, flag int) {
	b := append(p.scratch[:0], "# "...)
	b = strconv.AppendInt(b, int64(line), 10)
	b = append(b, ' ')
	b = strconv.AppendQuote(b, file)
	if flag > 0 {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(flag), 10)
	}
	b = append(b, '\n')
	p.out.Write(b)
	p.scratch = b
	p.lastFile = file
	p.lastLine = line - 1
}

// emitLine renders one expanded line straight into the output.
func (p *pp) emitLine(toks []Token) {
	if p.curFile != p.lastFile || p.curLine != p.lastLine+1 {
		p.emitMarker(p.curLine, p.curFile, 0)
	}
	writeTokens(&p.out, toks)
	p.out.WriteByte('\n')
	p.lastLine = p.curLine
}

// lineTokens returns the Tokens recs stand for in the run's one line
// buffer, which the next call overwrites: the caller consumes them
// before the next line, and anything that keeps tokens longer copies
// them.
func (p *pp) lineTokens(s *scanned, recs []tokRec) []Token {
	p.lineBuf = s.tokens(p.lineBuf[:0], recs)
	return p.lineBuf
}

func (p *pp) processFile(filePath string, depth int) error {
	if depth > p.opts.MaxDepth {
		return p.errf("#include nested too deeply (depth %d) at %s", depth, filePath)
	}
	content, key, ok := p.readFile(filePath)
	if !ok {
		return p.errf("%s: no such file", filePath)
	}
	if len(content) > maxScanBytes {
		return p.errf("%s: file too large (%d bytes)", filePath, len(content))
	}
	p.includes++
	condBase := len(p.conds)
	prevFile, prevLine := p.curFile, p.curLine
	p.curFile = filePath
	flag := 1
	if depth == 0 {
		flag = 0
	}
	p.emitMarker(1, filePath, flag)

	var s *scanned
	if p.opts.Cache != nil {
		s = p.opts.Cache.scan(filePath, content, key)
	} else {
		s = scan(content)
	}
	for i := range s.lines {
		ln := &s.lines[i]
		p.curLine = int(ln.startLine)
		p.inputLines++
		text := s.lineText(ln)
		if name, rest, ok := directiveName(text); ok {
			if err := p.directive(s, i, name, rest, depth); err != nil {
				return err
			}
			continue
		}
		if !p.active() {
			continue
		}
		if strings.TrimSpace(text) == "" {
			continue // gcc collapses blank lines; markers resync
		}
		toks, err := p.expandTokens(p.lineTokens(s, s.lineToks(ln)))
		if err != nil {
			return err
		}
		p.emitLine(toks)
	}

	if len(p.conds) != condBase {
		return p.errf("unterminated #if in %s", filePath)
	}
	p.curFile, p.curLine = prevFile, prevLine
	if depth > 0 {
		p.emitMarker(prevLine+1, prevFile, 2)
	}
	return nil
}

// directive handles line i of s, a directive line: name is the
// directive's name and rest the operand text after it.
func (p *pp) directive(s *scanned, i int, name, rest string, depth int) error {
	// operand returns the tokens after `#` and name (see directiveName) in
	// the run's line buffer.
	operand := func() []Token {
		ln := &s.lines[i]
		return p.lineTokens(s, s.toks[ln.tok+2:ln.tokEnd])
	}

	// Conditional directives are processed even in inactive regions, to
	// track nesting.
	switch name {
	case "if", "ifdef", "ifndef":
		parentActive := p.active()
		c := cond{parentActive: parentActive}
		if parentActive {
			v, err := p.evalConditionDirective(name, operand())
			if err != nil {
				return err
			}
			c.active = v
			c.taken = v
		}
		p.conds = append(p.conds, c)
		return nil
	case "elif":
		if len(p.conds) == 0 {
			return p.errf("#elif without #if")
		}
		c := &p.conds[len(p.conds)-1]
		if c.sawElse {
			return p.errf("#elif after #else")
		}
		if !c.parentActive || c.taken {
			c.active = false
			return nil
		}
		v, err := p.evalCondition(operand())
		if err != nil {
			return err
		}
		c.active = v
		c.taken = v
		return nil
	case "else":
		if len(p.conds) == 0 {
			return p.errf("#else without #if")
		}
		c := &p.conds[len(p.conds)-1]
		if c.sawElse {
			return p.errf("duplicate #else")
		}
		c.sawElse = true
		c.active = c.parentActive && !c.taken
		c.taken = true
		return nil
	case "endif":
		if len(p.conds) == 0 {
			return p.errf("#endif without #if")
		}
		p.conds = p.conds[:len(p.conds)-1]
		return nil
	}

	if !p.active() {
		return nil
	}

	switch name {
	case "define":
		d := s.def(i)
		if d.err != nil {
			return p.errf("%v", d.err)
		}
		p.macros[d.m.Name] = d.m
	case "undef":
		toks := operand()
		if len(toks) == 0 || toks[0].Kind != KindIdent {
			return p.errf("#undef requires a macro name")
		}
		p.macros[toks[0].Text] = nil // tombstone: shadows any predefined macro
	case "include":
		return p.include(rest, depth)
	case "error":
		return p.errf("#error %s", rest)
	case "warning":
		p.warnings = append(p.warnings, fmt.Sprintf("%s:%d: #warning %s", p.curFile, p.curLine, rest))
	case "pragma":
		if strings.TrimSpace(rest) == "once" {
			p.pragmaOnce[p.curFile] = true
		}
		// Other pragmas carry no meaning for our back end.
	case "line", "":
		// #line is unused by the generated corpus; a lone '#' is a null
		// directive.
	default:
		return p.errf("invalid preprocessing directive #%s", name)
	}
	return nil
}

func (p *pp) evalConditionDirective(name string, toks []Token) (bool, error) {
	switch name {
	case "ifdef", "ifndef":
		if len(toks) == 0 || toks[0].Kind != KindIdent {
			return false, p.errf("#%s requires an identifier", name)
		}
		_, defined := p.macroFor(toks[0].Text)
		if name == "ifndef" {
			return !defined, nil
		}
		return defined, nil
	default: // "if"
		return p.evalCondition(toks)
	}
}

// include processes the operand of #include.
func (p *pp) include(rest string, depth int) error {
	rest = strings.TrimSpace(rest)
	var target string
	var quoted bool
	switch {
	case strings.HasPrefix(rest, "\"") && strings.Count(rest, "\"") >= 2:
		end := strings.Index(rest[1:], "\"")
		target = rest[1 : 1+end]
		quoted = true
	case strings.HasPrefix(rest, "<") && strings.Contains(rest, ">"):
		end := strings.Index(rest, ">")
		target = rest[1:end]
	default:
		// Macro-expanded include operands are legal C but unused by the
		// generated corpus; resolve them if they expand to a valid form.
		toks, err := p.expandTokens(Lex(rest))
		if err != nil {
			return err
		}
		expanded := renderTokens(toks)
		if strings.TrimSpace(expanded) == rest {
			return p.errf("#include expects \"FILENAME\" or <FILENAME>, got %q", rest)
		}
		return p.include(expanded, depth)
	}
	if target == "" {
		return p.errf("empty #include target")
	}

	resolved, ok := p.resolveInclude(target, quoted)
	if !ok {
		return p.errf("%s: no such file or directory", target)
	}
	if p.pragmaOnce[resolved] {
		return nil
	}
	return p.processFile(resolved, depth+1)
}

func (p *pp) resolveInclude(target string, quoted bool) (string, bool) {
	if quoted {
		cand := path.Join(path.Dir(p.curFile), target)
		if _, _, ok := p.readFile(cand); ok {
			return cand, true
		}
	}
	for _, dir := range p.opts.IncludeDirs {
		cand := path.Join(dir, target)
		if _, _, ok := p.readFile(cand); ok {
			return cand, true
		}
	}
	return "", false
}
