package core

import (
	"sort"
	"strings"

	"jmake/internal/fstree"
	"jmake/internal/kbuild"
)

// ConfigKind distinguishes generated configurations from prepared ones.
type ConfigKind int

// Configuration kinds.
const (
	ConfigAllYes ConfigKind = iota + 1
	ConfigDefconfig
	// ConfigAllMod is the paper's proposed extension (§V-B): allmodconfig
	// builds everything modular, defining MODULE and thereby covering
	// `#ifdef MODULE` regions, at the cost of nearly doubling the
	// configurations tried.
	ConfigAllMod
	// ConfigCoverage is a synthesized configuration that forces specific
	// variables on or off to activate an otherwise-uncovered region — the
	// Vampyr/Troll-style generation the paper points to (§VI-VII).
	ConfigCoverage
)

func (k ConfigKind) String() string {
	switch k {
	case ConfigDefconfig:
		return "defconfig"
	case ConfigAllMod:
		return "allmodconfig"
	case ConfigCoverage:
		return "coverage"
	default:
		return "allyesconfig"
	}
}

// ConfigChoice is one configuration to try for an architecture.
type ConfigChoice struct {
	Kind ConfigKind
	// Path is the defconfig file path for ConfigDefconfig.
	Path string
}

// ArchChoice is one candidate architecture with its ordered configurations.
type ArchChoice struct {
	Arch    string
	Configs []ConfigChoice
}

// archIndex maps configuration variable names to the architectures whose
// subtrees mention them, and to defconfig files mentioning them, per the
// paper's heuristic ("if such a configuration variable is also mentioned
// somewhere in a subdirectory of arch", §III-C).
type archIndex struct {
	varArches     map[string][]string
	varDefconfigs map[string][]string
}

// buildArchIndex scans arch/*/ Kconfig, Makefile and configs/ files once
// per checkout.
func buildArchIndex(t *fstree.Tree, arches map[string]*kbuild.Arch) *archIndex {
	ix := &archIndex{
		varArches:     make(map[string][]string),
		varDefconfigs: make(map[string][]string),
	}
	names := kbuild.ArchNames(arches)
	for _, arch := range names {
		seen := make(map[string]bool)
		for _, p := range t.Under("arch/" + arch) {
			base := p[strings.LastIndexByte(p, '/')+1:]
			isDefconfig := strings.Contains(p, "/configs/")
			if !isDefconfig && base != "Kconfig" && base != "Makefile" {
				continue
			}
			content, err := t.Read(p)
			if err != nil {
				continue
			}
			for _, name := range referencedVarNames(content) {
				if isDefconfig {
					ix.varDefconfigs[name] = append(ix.varDefconfigs[name], p)
					continue
				}
				if !seen[name] {
					seen[name] = true
					ix.varArches[name] = append(ix.varArches[name], arch)
				}
			}
		}
	}
	return ix
}

// referencedVarNames extracts configuration variable names from Kconfig,
// Makefile or defconfig text: CONFIG_X references and Kconfig declarations
// or expressions mentioning bare upper-case identifiers after keywords.
func referencedVarNames(content string) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, raw := range strings.Split(content, "\n") {
		line := strings.TrimSpace(raw)
		// CONFIG_-prefixed references (Makefiles, defconfigs, "# CONFIG_X is
		// not set" lines).
		for {
			i := strings.Index(line, "CONFIG_")
			if i < 0 {
				break
			}
			rest := line[i+len("CONFIG_"):]
			j := 0
			for j < len(rest) && isVarChar(rest[j]) {
				j++
			}
			add(rest[:j])
			line = rest[j:]
		}
		// Kconfig declarations: "config NAME" / "menuconfig NAME".
		trimmed := strings.TrimSpace(raw)
		for _, kw := range []string{"config ", "menuconfig ", "select ", "depends on "} {
			if strings.HasPrefix(trimmed, kw) {
				for _, tok := range strings.FieldsFunc(trimmed[len(kw):], func(r rune) bool {
					return !(r == '_' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
				}) {
					if tok != "" && tok[0] >= 'A' && tok[0] <= 'Z' {
						add(tok)
					}
				}
			}
		}
	}
	return out
}

func isVarChar(c byte) bool {
	return c == '_' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z'
}

// selectArches returns the ordered (architecture, configurations) candidates
// for one file, per paper §III-C:
//
//  1. a file under arch/<A>/ is compiled with <A>'s cross-compiler only;
//  2. otherwise the host architecture is tried first (a "simple make",
//     counting on CONFIG_COMPILE_TEST to cover foreign devices);
//  3. then any architecture whose subtree mentions one of the file's
//     gating configuration variables, with that architecture's
//     allyesconfig — plus one matching defconfig from its configs/
//     directory, chosen deterministically.
//
// useDefconfigs disables the configs/ exploration (the .h fallback when
// too many candidate .c files exist, §III-E).
func (c *Checker) selectArches(file string, useDefconfigs bool) []ArchChoice {
	file = fstree.Clean(file)
	if strings.HasPrefix(file, "arch/") {
		rest := strings.TrimPrefix(file, "arch/")
		if i := strings.IndexByte(rest, '/'); i > 0 {
			arch := rest[:i]
			if _, ok := c.arches[arch]; ok {
				cs := []ConfigChoice{{Kind: ConfigAllYes}}
				if c.opts.TryAllModConfig {
					cs = append(cs, ConfigChoice{Kind: ConfigAllMod})
				}
				return []ArchChoice{{Arch: arch, Configs: cs}}
			}
			return nil // unsupported architecture
		}
	}

	gating, err := kbuild.GatingConfigs(c.tree, file, kbuild.HostArch)
	if err != nil {
		gating = nil // no Makefile: fall back to the host architecture alone
	}

	var out []ArchChoice
	added := make(map[string]int) // arch -> index in out
	baseConfigs := func() []ConfigChoice {
		cs := []ConfigChoice{{Kind: ConfigAllYes}}
		if c.opts.TryAllModConfig {
			cs = append(cs, ConfigChoice{Kind: ConfigAllMod})
		}
		return cs
	}
	addArch := func(arch string) int {
		if i, ok := added[arch]; ok {
			return i
		}
		out = append(out, ArchChoice{Arch: arch, Configs: baseConfigs()})
		added[arch] = len(out) - 1
		return len(out) - 1
	}
	addArch(kbuild.HostArch)

	for _, v := range gating {
		for _, arch := range c.archIx.varArches[v] {
			addArch(arch)
		}
		if !useDefconfigs {
			continue
		}
		if defs := c.archIx.varDefconfigs[v]; len(defs) > 0 {
			// "JMake additionally uses one such configuration file chosen at
			// random" — deterministic here, keyed by file identity.
			pick := defs[int(hashString(file+v))%len(defs)]
			arch := archOfDefconfig(pick)
			i := addArch(arch)
			if !hasDefconfig(out[i].Configs, pick) {
				out[i].Configs = append(out[i].Configs, ConfigChoice{Kind: ConfigDefconfig, Path: pick})
			}
		}
	}
	return out
}

func hasDefconfig(cs []ConfigChoice, path string) bool {
	for _, cc := range cs {
		if cc.Kind == ConfigDefconfig && cc.Path == path {
			return true
		}
	}
	return false
}

// archOfDefconfig extracts the architecture from arch/<a>/configs/<f>.
func archOfDefconfig(p string) string {
	rest := strings.TrimPrefix(p, "arch/")
	if i := strings.IndexByte(rest, '/'); i > 0 {
		return rest[:i]
	}
	return ""
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// mergeArchChoices combines per-file choices preserving order: host arch
// first, then in first-seen order (the paper compiles all of a patch's
// files relevant to an architecture together).
func mergeArchChoices(per [][]ArchChoice) []ArchChoice {
	var out []ArchChoice
	index := make(map[string]int)
	for _, choices := range per {
		for _, ch := range choices {
			i, ok := index[ch.Arch]
			if !ok {
				out = append(out, ArchChoice{Arch: ch.Arch, Configs: append([]ConfigChoice(nil), ch.Configs...)})
				index[ch.Arch] = len(out) - 1
				continue
			}
			for _, cc := range ch.Configs {
				if cc.Kind == ConfigAllYes || cc.Kind == ConfigAllMod {
					continue // already present for every arch
				}
				if !hasDefconfig(out[i].Configs, cc.Path) {
					out[i].Configs = append(out[i].Configs, cc)
				}
			}
		}
	}
	// Host arch first, remaining in insertion order.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Arch == kbuild.HostArch && out[j].Arch != kbuild.HostArch
	})
	return out
}
