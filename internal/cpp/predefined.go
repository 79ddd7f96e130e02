package cpp

import (
	"hash"
	"hash/fnv"
	"sort"
)

// Predefined is an immutable, pre-lexed set of initial macro definitions
// (the CONFIG_* valuation plus arch built-ins). Building one lexes every
// body exactly once; Preprocess runs seeded with it resolve the shared
// *Macro values through a two-level lookup instead of re-lexing thousands
// of define bodies per file — the dominant per-file cost before this
// existed. Sharing the Macro values across concurrent runs is safe for
// the same reason TokenCache entries are: nothing writes to an
// expansion's input (see expandTokens), and substitution copies body
// tokens into a fresh replacement before extending their hide sets.
type Predefined struct {
	macros map[string]*Macro
	// digest is DefinesDigest of the set, computed while lexing it, so a
	// result-cache fingerprint over the set (ccache.OptionsFingerprint)
	// costs one word instead of a walk over thousands of defines.
	digest uint64
}

// NewPredefined lexes defines into a shareable macro set.
func NewPredefined(defines map[string]string) *Predefined {
	names := sortedNames(defines)
	macros := make(map[string]*Macro, len(defines))
	h := fnv.New64a()
	for _, name := range names {
		writeDefine(h, name, defines[name])
		toks := Lex(defines[name])
		if len(toks) > 0 {
			toks[0].WS = false
		}
		macros[name] = &Macro{Name: name, Body: toks}
	}
	return &Predefined{macros: macros, digest: h.Sum64()}
}

// Len returns the number of predefined macros.
func (p *Predefined) Len() int { return len(p.macros) }

// Digest returns DefinesDigest of the set p was built from.
func (p *Predefined) Digest() uint64 { return p.digest }

// DefinesDigest hashes a define set: FNV-64a over "name=body\x00" for each
// definition in sorted name order.
func DefinesDigest(defines map[string]string) uint64 {
	h := fnv.New64a()
	for _, name := range sortedNames(defines) {
		writeDefine(h, name, defines[name])
	}
	return h.Sum64()
}

func sortedNames(defines map[string]string) []string {
	names := make([]string, 0, len(defines))
	for name := range defines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func writeDefine(h hash.Hash64, name, body string) {
	_, _ = h.Write([]byte(name))
	_, _ = h.Write([]byte{'='})
	_, _ = h.Write([]byte(body))
	_, _ = h.Write([]byte{0})
}
