package kconfig

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync/atomic"
)

// SymType is the type of a configuration symbol.
type SymType int

// Symbol types. Only bool and tristate matter for code inclusion.
const (
	TypeBool SymType = iota + 1
	TypeTristate
)

// Select is one `select TARGET [if COND]` clause.
type Select struct {
	Target string
	Cond   Expr // nil means unconditional
}

// Default is one `default EXPR [if COND]` clause.
type Default struct {
	Value Expr
	Cond  Expr // nil means unconditional
}

// Symbol is one `config NAME` block.
type Symbol struct {
	Name      string
	Type      SymType
	Prompt    string
	DependsOn Expr // nil means no dependency
	Selects   []Select
	Defaults  []Default
	// DefFile is the Kconfig file that declared the symbol, used by JMake's
	// architecture heuristics to associate symbols with arch directories.
	DefFile string
}

// Source supplies Kconfig file contents (satisfied by fstree adapters).
type Source interface {
	ReadFile(path string) (string, bool)
}

// ChoiceGroup is a `choice ... endchoice` block: exactly one member can be
// enabled. This is why allyesconfig cannot cover everything — the paper
// notes it "is forced to make some choices and thus does not include all
// lines of code" (§VI).
type ChoiceGroup struct {
	Members []string
	// Default names the member chosen when nothing forces another.
	Default string
}

// Tree is a parsed Kconfig hierarchy rooted at one file.
//
// A Tree is immutable after Parse returns, so concurrent evaluation
// workers may share one Tree freely: AllYesConfig, AllModConfig,
// ApplyDefconfig and the dependency queries only read it and build fresh
// Config values. (In practice sharing goes through core.ConfigProvider,
// which also memoizes the valuations under a lock.)
type Tree struct {
	symbols map[string]*Symbol
	order   []string
	choices []*ChoiceGroup
	// files lists every Kconfig file parsed, in order.
	files []string
	// selected holds every symbol some `select` clause targets.
	selected map[string]bool
}

// ErrParse wraps Kconfig syntax errors.
var ErrParse = errors.New("kconfig: parse error")

// Parse reads the Kconfig hierarchy rooted at rootPath, following `source`
// directives.
func Parse(src Source, rootPath string) (*Tree, error) {
	t := &Tree{symbols: make(map[string]*Symbol), selected: make(map[string]bool)}
	if err := t.parseFile(src, rootPath, nil, 0); err != nil {
		return nil, err
	}
	return t, nil
}

const maxSourceDepth = 32

// parseFile parses one Kconfig file. cond is the conjunction of enclosing
// `if` blocks from ancestors, applied as an extra dependency to each symbol.
func (t *Tree) parseFile(src Source, path string, cond Expr, depth int) error {
	if depth > maxSourceDepth {
		return fmt.Errorf("%w: source nesting too deep at %s", ErrParse, path)
	}
	content, ok := src.ReadFile(path)
	if !ok {
		return fmt.Errorf("%w: %s: no such file", ErrParse, path)
	}
	t.files = append(t.files, path)

	var cur *Symbol
	var curChoice *ChoiceGroup
	// condStack holds the conditions of `if` blocks opened in this file.
	condStack := []Expr{cond}
	curCond := func() Expr { return condStack[len(condStack)-1] }
	lines := strings.Split(content, "\n")
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		word, rest := splitWord(line)
		fail := func(msg string) error {
			return fmt.Errorf("%w: %s:%d: %s", ErrParse, path, ln+1, msg)
		}
		switch word {
		case "config", "menuconfig":
			if !isIdentText(rest) {
				return fail(fmt.Sprintf("bad symbol name %q", rest))
			}
			cur = t.declare(rest, path)
			if c := curCond(); c != nil {
				cur.addDep(c)
			}
			if curChoice != nil {
				curChoice.Members = append(curChoice.Members, cur.Name)
			}
		case "choice":
			cur = nil
			if curChoice != nil {
				return fail("nested choice blocks are not supported")
			}
			curChoice = &ChoiceGroup{}
			t.choices = append(t.choices, curChoice)
		case "endchoice":
			cur = nil
			if curChoice == nil {
				return fail("endchoice without choice")
			}
			curChoice = nil
		case "bool", "boolean":
			if cur == nil {
				if curChoice != nil {
					continue // the choice block's own type line
				}
				return fail("type outside config block")
			}
			cur.Type = TypeBool
			cur.Prompt = unquote(rest)
		case "tristate":
			if cur == nil {
				if curChoice != nil {
					continue
				}
				return fail("type outside config block")
			}
			cur.Type = TypeTristate
			cur.Prompt = unquote(rest)
		case "depends":
			if cur == nil {
				return fail("depends outside config block")
			}
			exprText := strings.TrimSpace(strings.TrimPrefix(rest, "on"))
			e, err := ParseExpr(exprText)
			if err != nil {
				return fail(err.Error())
			}
			cur.addDep(e)
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
			cur.Selects = append(cur.Selects, sel)
			t.selected[target] = true
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
			if word == "def_bool" {
				cur.Type = TypeBool
			}
			if word == "def_tristate" {
				cur.Type = TypeTristate
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
			cur.Defaults = append(cur.Defaults, d)
		case "source":
			cur = nil
			if err := t.parseFile(src, unquote(rest), curCond(), depth+1); err != nil {
				return err
			}
		case "if":
			cur = nil
			e, err := ParseExpr(rest)
			if err != nil {
				return fail(err.Error())
			}
			if c := curCond(); c != nil {
				e = andExpr{c, e}
			}
			condStack = append(condStack, e)
		case "endif":
			cur = nil
			if len(condStack) == 1 {
				return fail("endif without if")
			}
			condStack = condStack[:len(condStack)-1]
		case "menu", "endmenu", "comment", "help", "---help---", "mainmenu":
			// Structure and documentation only. Help bodies are indented
			// free text; they never collide with recognized keywords here
			// because the generated corpus keeps help text one line.
			cur = nil
		default:
			// Unknown attribute lines inside a config block are tolerated
			// (string/int symbols, ranges, etc. are irrelevant to builds).
		}
	}
	if len(condStack) != 1 {
		return fmt.Errorf("%w: %s: unterminated if block", ErrParse, path)
	}
	if curChoice != nil {
		return fmt.Errorf("%w: %s: unterminated choice block", ErrParse, path)
	}
	return nil
}

func (t *Tree) declare(name, file string) *Symbol {
	if s, ok := t.symbols[name]; ok {
		return s
	}
	s := &Symbol{Name: name, Type: TypeBool, DefFile: file}
	t.symbols[name] = s
	t.order = append(t.order, name)
	return s
}

func (s *Symbol) addDep(e Expr) {
	if s.DependsOn == nil {
		s.DependsOn = e
		return
	}
	s.DependsOn = andExpr{s.DependsOn, e}
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

// Symbol returns the named symbol, or nil.
func (t *Tree) Symbol(name string) *Symbol { return t.symbols[name] }

// Names returns all symbol names in declaration order.
func (t *Tree) Names() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Len returns the number of declared symbols.
func (t *Tree) Len() int { return len(t.order) }

// Files returns the Kconfig files parsed, in order.
func (t *Tree) Files() []string {
	out := make([]string, len(t.files))
	copy(out, t.files)
	return out
}

// Config is a complete symbol valuation. Like Tree it is immutable once
// built — Value and Defines only read — so one cached Config may back any
// number of concurrent builders.
type Config struct {
	values map[string]Value
	// memo caches the derived views (the Defines rendering and the
	// fingerprint), which builders request once per patch variant; the
	// valuation has thousands of symbols, so rebuilding them per builder
	// dominated builder setup. Set drops the memo. The pointer is atomic
	// because concurrent builders share one cached Config: a racing
	// rebuild is idempotent, so last-store-wins is fine.
	memo atomic.Pointer[configMemo]
}

type configMemo struct {
	defines map[string]string
	fp      uint64
}

func (c *Config) memoized() *configMemo {
	if m := c.memo.Load(); m != nil {
		return m
	}
	m := &configMemo{defines: c.buildDefines(), fp: c.computeFingerprint()}
	c.memo.Store(m)
	return m
}

// Value returns the configured value of name (No for unknown symbols, as in
// the kernel: an unset CONFIG_* is simply undefined).
func (c *Config) Value(name string) Value { return c.values[name] }

// Set overrides one symbol value. Used by tests and by the MODULE handling
// in kbuild. Not safe concurrently with readers; a shared (provider-cached)
// Config must never be Set.
func (c *Config) Set(name string, v Value) {
	if c.values == nil {
		c.values = make(map[string]Value)
	}
	c.values[name] = v
	c.memo.Store(nil)
}

// Clone returns an independent copy.
func (c *Config) Clone() *Config {
	nc := &Config{values: make(map[string]Value, len(c.values))}
	for k, v := range c.values {
		nc.values[k] = v
	}
	return nc
}

// Defines renders the valuation as preprocessor macros the way Kbuild's
// generated autoconf.h does: CONFIG_FOO=1 for y, CONFIG_FOO_MODULE=1 for m.
// The returned map is memoized and shared — callers must not modify it.
func (c *Config) Defines() map[string]string {
	return c.memoized().defines
}

func (c *Config) buildDefines() map[string]string {
	out := make(map[string]string, len(c.values))
	for name, v := range c.values {
		switch v {
		case Yes:
			out["CONFIG_"+name] = "1"
		case Mod:
			out["CONFIG_"+name+"_MODULE"] = "1"
		}
	}
	return out
}

// Fingerprint returns a stable content hash of the complete valuation —
// every symbol, including explicit n entries, since Value (and hence
// Kbuild reachability) distinguishes them from absent ones. Two configs
// with equal fingerprints make identical Value and Defines decisions, so
// the fingerprint is a sound result-cache key component (internal/ccache).
// Memoized: the sort over every symbol name runs once per valuation, not
// once per builder.
func (c *Config) Fingerprint() uint64 {
	return c.memoized().fp
}

func (c *Config) computeFingerprint() uint64 {
	names := make([]string, 0, len(c.values))
	for name := range c.values {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		_, _ = h.Write([]byte(name))
		_, _ = h.Write([]byte{'=', byte(c.values[name]), 0})
	}
	return h.Sum64()
}

// fixpoint computes a stable valuation where each symbol takes
// want(symbol) bounded by its dependencies, then select clauses force
// their targets on (ignoring the target's own dependencies, faithfully to
// Kconfig's infamous select semantics).
func (t *Tree) fixpoint(want func(*Symbol) Value) *Config {
	vals := make(map[string]Value, len(t.order))
	get := func(name string) Value { return vals[name] }
	// Start from the desired maximum and shrink to honor dependencies;
	// iterate because dependencies reference other symbols.
	for _, name := range t.order {
		vals[name] = want(t.symbols[name])
	}
	prev := make(map[string]Value, len(t.order))
	for iter := 0; iter < len(t.order)+2; iter++ {
		// Convergence is judged on iteration-end states: the want pass and
		// the choice enforcement legitimately flip choice members back and
		// forth within one iteration.
		for k, v := range vals {
			prev[k] = v
		}
		changed := false
		for _, name := range t.order {
			s := t.symbols[name]
			v := want(s)
			if s.DependsOn != nil {
				dep := s.DependsOn.Eval(get)
				if dep == No {
					v = No
				} else if s.Type == TypeTristate && dep < v {
					v = dep
				}
			}
			vals[name] = v
		}
		// Enforce choice groups: exactly one member stays enabled — the
		// group default if possible, else the first enabled member. This is
		// the "allyesconfig is forced to make some choices" effect.
		for _, ch := range t.choices {
			winner := ""
			if ch.Default != "" && vals[ch.Default] != No {
				winner = ch.Default
			} else {
				for _, m := range ch.Members {
					if vals[m] != No {
						winner = m
						break
					}
				}
			}
			for _, m := range ch.Members {
				v := No
				if m == winner {
					v = Yes
				}
				vals[m] = v
			}
		}
		// Apply selects: a select raises the target to at least the
		// selector's value regardless of the target's dependencies.
		for _, name := range t.order {
			s := t.symbols[name]
			sv := vals[name]
			if sv == No {
				continue
			}
			for _, sel := range s.Selects {
				if sel.Cond != nil && sel.Cond.Eval(get) == No {
					continue
				}
				target, ok := t.symbols[sel.Target]
				forced := sv
				if ok && target.Type == TypeBool && forced == Mod {
					forced = Yes
				}
				if vals[sel.Target] < forced {
					vals[sel.Target] = forced
				}
			}
		}
		for k, v := range vals {
			if prev[k] != v {
				changed = true
				break
			}
		}
		if iter > 0 && !changed {
			break
		}
	}
	return &Config{values: vals}
}

// AllYesConfig emulates `make allyesconfig`: every symbol is set as high as
// its dependencies allow, preferring y.
func (t *Tree) AllYesConfig() *Config {
	return t.fixpoint(func(*Symbol) Value { return Yes })
}

// AllModConfig emulates `make allmodconfig`: tristate symbols prefer m,
// bool symbols prefer y.
func (t *Tree) AllModConfig() *Config {
	return t.fixpoint(func(s *Symbol) Value {
		if s.Type == TypeTristate {
			return Mod
		}
		return Yes
	})
}

// ConfigWithWants computes a configuration that drives the named symbols
// toward the requested values while everything else follows allyesconfig.
// Dependencies still apply: a want that cannot be satisfied (e.g. the
// symbol depends on an undeclared variable) simply ends at n. This backs
// the Vampyr/Troll-style coverage-configuration synthesis the paper
// proposes as future work (§VII).
func (t *Tree) ConfigWithWants(wants map[string]Value) *Config {
	return t.fixpoint(func(s *Symbol) Value {
		if v, ok := wants[s.Name]; ok {
			return v
		}
		return Yes
	})
}

// DependencyWants expands a want for one symbol into the per-symbol wants
// that make its dependency chain satisfiable (one level deep): to get
// FOO=y where FOO depends on BAR && !BAZ, also want BAR=y and BAZ=n.
func (t *Tree) DependencyWants(name string, target Value) map[string]Value {
	wants := map[string]Value{name: target}
	if s := t.symbols[name]; s != nil && s.DependsOn != nil && target != No {
		s.DependsOn.WantsFor(Yes, wants)
		wants[name] = target // the symbol's own want always wins
	}
	return wants
}

// ApplyDefconfig emulates `make <name>_defconfig` followed by
// olddefconfig: symbols explicitly listed get their listed value (bounded
// by dependencies); unlisted symbols take their first applicable default.
func (t *Tree) ApplyDefconfig(text string) (*Config, error) {
	explicit := make(map[string]Value)
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// "# CONFIG_FOO is not set"
			if name, ok := notSetName(line); ok {
				explicit[name] = No
			}
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 || !strings.HasPrefix(line, "CONFIG_") {
			return nil, fmt.Errorf("%w: defconfig line %d: %q", ErrParse, ln+1, line)
		}
		name := line[len("CONFIG_"):eq]
		var v Value
		switch line[eq+1:] {
		case "y":
			v = Yes
		case "m":
			v = Mod
		case "n":
			v = No
		default:
			return nil, fmt.Errorf("%w: defconfig line %d: bad value %q", ErrParse, ln+1, line[eq+1:])
		}
		explicit[name] = v
	}
	cfg := t.fixpoint(func(s *Symbol) Value {
		if v, ok := explicit[s.Name]; ok {
			return v
		}
		return No // resolved by defaults below
	})
	// Defaults for unlisted symbols, then re-run the fixpoint with the
	// combined wants so selects and dependencies settle.
	want := func(s *Symbol) Value {
		if v, ok := explicit[s.Name]; ok {
			return v
		}
		get := func(name string) Value { return cfg.values[name] }
		for _, d := range s.Defaults {
			if d.Cond != nil && d.Cond.Eval(get) == No {
				continue
			}
			return d.Value.Eval(get)
		}
		return No
	}
	return t.fixpoint(want), nil
}

func notSetName(line string) (string, bool) {
	const pre = "# CONFIG_"
	const suf = " is not set"
	if strings.HasPrefix(line, pre) && strings.HasSuffix(line, suf) {
		return line[len(pre) : len(line)-len(suf)], true
	}
	return "", false
}
