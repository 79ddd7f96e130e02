package kconfig

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// ErrParse wraps Kconfig syntax errors.
var ErrParse = errors.New("kconfig: parse error")

// Parse reads the Kconfig hierarchy rooted at rootPath, following `source`
// directives. It is NewParser().Parse: nothing is shared with other trees.
func Parse(src Source, rootPath string) (*Tree, error) {
	return NewParser().Parse(src, rootPath)
}

const maxSourceDepth = 32

// parserLimit bounds a Parser's memo. A generated tree has 60 Kconfig
// files whatever its scale, so the memo holds several trees' worth of
// contents before it is cleared.
const parserLimit = 512

// Parser parses Kconfig hierarchies and shares the work between them. It
// parses each file once per path, content and inherited `if` condition
// into an immutable record, and links every Tree from those records: the
// architectures of one source tree, which all source the same shared
// files, parse those files once. A symbol's first declaration in a tree
// is the record's own *Symbol, shared by every tree linked from that
// record; a later declaration of the same name merges into a tree-local
// copy. Because a record is keyed by the content it was parsed from, an
// edited file is parsed afresh and trees of different snapshots never
// see each other's records.
//
// A Parser is safe for concurrent use. Its memo is cleared whole once it
// passes parserLimit records, so a long-lived one cannot pile up parses
// of contents it will not see again.
type Parser struct {
	mu      sync.Mutex
	records map[recordKey]*fileRecord
	// symbols and selected size the next tree's maps: the size of the
	// last tree linked, since the architectures of one source tree differ
	// in a few symbols only.
	symbols, selected int
}

// NewParser returns a Parser with an empty memo.
func NewParser() *Parser {
	return &Parser{records: make(map[recordKey]*fileRecord)}
}

// recordKey identifies one file parse. The inherited condition compares
// structurally: every Expr node type is a comparable value, and must stay
// one for the key to hash.
type recordKey struct {
	path, content string
	cond          Expr
}

// fileRecord is one file's parse: its symbol declarations, choice blocks
// and source directives in file order, and the error that ended the
// parse, if any. It is immutable once built.
type fileRecord struct {
	items []recordItem
	err   error
}

// recordItem is one entry of a record; exactly one of decl, choice and
// source is set.
type recordItem struct {
	decl   *declaration
	choice *ChoiceGroup
	source string
	cond   Expr // the condition the source directive's file inherits
}

// declaration is one `config NAME` block.
type declaration struct {
	// sym is the block applied to a fresh symbol. It is the tree's symbol
	// wherever the block is the name's first declaration.
	sym *Symbol
	// deps are the block's dependencies in order, the inherited `if`
	// condition first; typed and prompted say whether the block set the
	// type and the prompt. A later declaration merges these, with sym's
	// selects and defaults, into the earlier symbol.
	deps            []Expr
	typed, prompted bool
}

func (d *declaration) addDep(e Expr) {
	d.deps = append(d.deps, e)
	d.sym.addDep(e)
}

// merge applies a later declaration of the same name, as if its lines
// followed the symbol's earlier ones.
func (s *Symbol) merge(d *declaration) {
	for _, e := range d.deps {
		s.addDep(e)
	}
	if d.typed {
		s.Type = d.sym.Type
	}
	if d.prompted {
		s.Prompt = d.sym.Prompt
	}
	s.Selects = append(s.Selects, d.sym.Selects...)
	s.Defaults = append(s.Defaults, d.sym.Defaults...)
}

func (s *Symbol) addDep(e Expr) {
	if s.DependsOn == nil {
		s.DependsOn = e
		return
	}
	s.DependsOn = andExpr{s.DependsOn, e}
}

// Parse links the Kconfig hierarchy rooted at rootPath, following `source`
// directives, from the Parser's records.
func (p *Parser) Parse(src Source, rootPath string) (*Tree, error) {
	p.mu.Lock()
	symbols, selected := p.symbols, p.selected
	p.mu.Unlock()
	t := &Tree{
		symbols:  make(map[string]*Symbol, symbols),
		order:    make([]string, 0, symbols),
		selected: make(map[string]bool, selected),
	}
	l := linker{p: p, src: src, t: t}
	if err := l.link(rootPath, nil, 0); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.symbols, p.selected = len(t.symbols), len(t.selected)
	p.mu.Unlock()
	return t, nil
}

// record returns the parse of one file content under an inherited
// condition, parsing it on first use. Concurrent first uses may both
// parse; the first stored record wins, and both are equal.
func (p *Parser) record(path, content string, cond Expr) *fileRecord {
	key := recordKey{path: path, content: content, cond: cond}
	p.mu.Lock()
	r := p.records[key]
	p.mu.Unlock()
	if r != nil {
		return r
	}
	r = parseRecord(path, content, cond)
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev := p.records[key]; prev != nil {
		return prev
	}
	if len(p.records) >= parserLimit {
		clear(p.records)
	}
	p.records[key] = r
	return r
}

// linker builds one Tree from records.
type linker struct {
	p   *Parser
	src Source
	t   *Tree
	// owned names the symbols this tree copied to merge a later
	// declaration into.
	owned map[string]bool
}

// link adds one file, and the files it sources, to the tree. cond is the
// conjunction of the enclosing `if` blocks of the files that source it.
func (l *linker) link(path string, cond Expr, depth int) error {
	if depth > maxSourceDepth {
		return fmt.Errorf("%w: source nesting too deep at %s", ErrParse, path)
	}
	content, ok := l.src.ReadFile(path)
	if !ok {
		return fmt.Errorf("%w: %s: no such file", ErrParse, path)
	}
	rec := l.p.record(path, content, cond)
	t := l.t
	t.files = append(t.files, path)
	for _, it := range rec.items {
		switch {
		case it.decl != nil:
			l.declare(it.decl)
		case it.choice != nil:
			t.choices = append(t.choices, it.choice)
		default:
			if err := l.link(it.source, it.cond, depth+1); err != nil {
				return err
			}
		}
	}
	return rec.err
}

// declare adds one declaration: the record's symbol when the name is new
// to the tree, else the declaration merged into the tree's own copy.
func (l *linker) declare(d *declaration) {
	t := l.t
	name := d.sym.Name
	for _, sel := range d.sym.Selects {
		t.selected[sel.Target] = true
	}
	s, ok := t.symbols[name]
	if !ok {
		t.symbols[name] = d.sym
		t.order = append(t.order, name)
		return
	}
	if !l.owned[name] {
		own := *s
		own.Selects = slices.Clip(own.Selects)
		own.Defaults = slices.Clip(own.Defaults)
		s = &own
		t.symbols[name] = s
		if l.owned == nil {
			l.owned = make(map[string]bool)
		}
		l.owned[name] = true
	}
	s.merge(d)
}

// block is one `if`, `menu` or `choice` block open in a file, with the
// condition it applies to every entry inside it: its enclosing blocks'
// condition and its own `if` expression or `depends on` lines.
type block struct {
	kind string // "if", "menu" or "choice"; "" for the file itself
	cond Expr
}

// parseRecord parses one file's content. cond is the conjunction of the
// enclosing blocks of the files that source it, applied as an extra
// dependency to each symbol the file declares.
func parseRecord(path, content string, cond Expr) *fileRecord {
	rec := &fileRecord{}
	var cur *declaration
	var curChoice *ChoiceGroup
	// blocks holds the blocks opened in this file, innermost last.
	blocks := []block{{cond: cond}}
	curCond := func() Expr { return blocks[len(blocks)-1].cond }
	// header is set on the lines that follow a `menu`, `choice` or
	// `comment` line until the first entry: a `depends on` there belongs to
	// that header. A menu's and a choice's conditions join their block's
	// condition; a comment's condition guards only the comment itself.
	header := ""
	push := func(kind string, c Expr) { blocks = append(blocks, block{kind: kind, cond: c}) }
	// pop closes the innermost block if it is of the given kind.
	pop := func(kind string) bool {
		if blocks[len(blocks)-1].kind != kind {
			return false
		}
		blocks = blocks[:len(blocks)-1]
		return true
	}
	// helpIndent is -1 outside a help body, 0 on the line after `help`,
	// and the body's first line's indentation after that line.
	helpIndent := -1
	lines := strings.Split(content, "\n")
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if helpIndent >= 0 && line != "" {
			// A help body is free text: it ends at the first non-blank
			// line indented less than its first line, as in Kconfig.
			ind := indentation(raw)
			switch {
			case helpIndent == 0 && ind > 0:
				helpIndent = ind
				continue
			case helpIndent > 0 && ind >= helpIndent:
				continue
			}
			helpIndent = -1
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		word, rest := splitWord(line)
		fail := func(msg string) *fileRecord {
			rec.err = fmt.Errorf("%w: %s:%d: %s", ErrParse, path, ln+1, msg)
			return rec
		}
		switch word {
		case "config", "menuconfig":
			if !isIdentText(rest) {
				return fail(fmt.Sprintf("bad symbol name %q", rest))
			}
			header = ""
			cur = &declaration{sym: &Symbol{Name: rest, Type: TypeBool, DefFile: path}}
			if c := curCond(); c != nil {
				cur.addDep(c)
			}
			rec.items = append(rec.items, recordItem{decl: cur})
			if curChoice != nil {
				curChoice.Members = append(curChoice.Members, rest)
			}
		case "choice":
			if curChoice != nil {
				return fail("nested choice blocks are not supported")
			}
			cur, header = nil, "choice"
			push("choice", curCond())
			curChoice = &ChoiceGroup{}
			rec.items = append(rec.items, recordItem{choice: curChoice})
		case "endchoice":
			cur, header = nil, ""
			if curChoice == nil || !pop("choice") {
				return fail("endchoice without choice")
			}
			curChoice = nil
		case "bool", "boolean", "tristate":
			if cur == nil {
				if curChoice != nil {
					continue // the choice block's own type line
				}
				return fail("type outside config block")
			}
			cur.sym.Type = TypeBool
			if word == "tristate" {
				cur.sym.Type = TypeTristate
			}
			cur.sym.Prompt = unquote(rest)
			cur.typed, cur.prompted = true, true
		case "depends":
			if cur == nil && header == "" {
				return fail("depends outside config block")
			}
			exprText := strings.TrimSpace(strings.TrimPrefix(rest, "on"))
			e, err := ParseExpr(exprText)
			if err != nil {
				return fail(err.Error())
			}
			switch {
			case cur != nil:
				cur.addDep(e)
			case header != "comment":
				b := &blocks[len(blocks)-1]
				if b.cond != nil {
					e = andExpr{b.cond, e}
				}
				b.cond = e
			}
		case "select":
			if cur == nil {
				return fail("select outside config block")
			}
			target, condText := splitIf(rest)
			if !isIdentText(target) {
				return fail(fmt.Sprintf("bad select target %q", target))
			}
			sel := Select{Target: target}
			if condText != "" {
				e, err := ParseExpr(condText)
				if err != nil {
					return fail(err.Error())
				}
				sel.Cond = e
			}
			cur.sym.Selects = append(cur.sym.Selects, sel)
		case "default", "def_bool", "def_tristate":
			if cur == nil {
				// A default line directly inside a choice block names the
				// chosen member.
				if curChoice != nil && word == "default" {
					name, _ := splitIf(rest)
					if !isIdentText(name) {
						return fail(fmt.Sprintf("bad choice default %q", name))
					}
					curChoice.Default = name
					continue
				}
				return fail("default outside config block")
			}
			switch word {
			case "def_bool":
				cur.sym.Type, cur.typed = TypeBool, true
			case "def_tristate":
				cur.sym.Type, cur.typed = TypeTristate, true
			}
			valText, condText := splitIf(rest)
			v, err := ParseExpr(valText)
			if err != nil {
				return fail(err.Error())
			}
			d := Default{Value: v}
			if condText != "" {
				e, err := ParseExpr(condText)
				if err != nil {
					return fail(err.Error())
				}
				d.Cond = e
			}
			cur.sym.Defaults = append(cur.sym.Defaults, d)
		case "source":
			cur, header = nil, ""
			rec.items = append(rec.items, recordItem{source: unquote(rest), cond: curCond()})
		case "if":
			cur, header = nil, ""
			e, err := ParseExpr(rest)
			if err != nil {
				return fail(err.Error())
			}
			if c := curCond(); c != nil {
				e = andExpr{c, e}
			}
			push("if", e)
		case "endif":
			cur, header = nil, ""
			if !pop("if") {
				return fail("endif without if")
			}
		case "menu":
			cur, header = nil, "menu"
			push("menu", curCond())
		case "endmenu":
			cur, header = nil, ""
			if !pop("menu") {
				return fail("endmenu without menu")
			}
		case "help", "---help---":
			// The entry stays open after its help text.
			helpIndent = 0
		case "comment":
			cur, header = nil, "comment"
		case "mainmenu":
			cur, header = nil, ""
		default:
			// Unknown attribute lines inside a config block are tolerated
			// (string/int symbols, ranges, etc. are irrelevant to builds).
		}
	}
	if len(blocks) != 1 {
		rec.err = fmt.Errorf("%w: %s: unterminated %s block", ErrParse, path, blocks[len(blocks)-1].kind)
	}
	return rec
}

// indentation is the column of a line's first non-blank byte, with tabs
// advancing to the next multiple of 8 as Kconfig counts them.
func indentation(raw string) int {
	col := 0
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case ' ':
			col++
		case '\t':
			col = col&^7 + 8
		default:
			return col
		}
	}
	return col
}

func splitWord(line string) (word, rest string) {
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		return line[:i], strings.TrimSpace(line[i:])
	}
	return line, ""
}

// splitIf splits "EXPR if COND" at the top-level `if`.
func splitIf(s string) (value, cond string) {
	if i := strings.Index(s, " if "); i >= 0 {
		return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+4:])
	}
	return strings.TrimSpace(s), ""
}

func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}
