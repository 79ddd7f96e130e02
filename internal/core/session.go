package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"jmake/internal/ccache"
	"jmake/internal/cpp"
	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/metrics"
	"jmake/internal/vclock"
)

// Session shares the window-invariant state across the checkers of an
// evaluation run: build metadata, discovered architectures, the
// arch-heuristic index, and the configuration cache. The paper's
// evaluation re-checks these per patch only because git clean wipes
// generated state; the inputs (Kconfig files, arch trees, Kbuild.meta) do
// not change across the evaluation window, so sharing is sound and keeps
// the 12,000-patch run tractable.
type Session struct {
	meta    *kbuild.Meta
	arches  map[string]*kbuild.Arch
	archIx  *archIndex
	metrics *metrics.Registry
	configs *ConfigProvider
	tokens  *cpp.TokenCache
	results *ccache.Cache
	// warm holds the session-scoped set-up marks and saved-effective-time
	// ledgers.
	warm *warmState
	// metaStale is set while the tree's Kbuild.meta fails to load: meta
	// is then older than the tree, so every Refresh retries the load.
	metaStale bool
}

// NewSession captures shared state from a base tree (any window snapshot).
// The session owns one metrics.Registry; every shared cache's counters
// are series in it, so the scattered per-package counter piles are views
// over a single home.
func NewSession(base *fstree.Tree) (*Session, error) {
	meta, err := kbuild.LoadMeta(base)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	arches := kbuild.DiscoverArches(base, meta)
	reg := metrics.NewRegistry()
	return &Session{
		meta:    meta,
		arches:  arches,
		archIx:  buildArchIndex(base, arches),
		metrics: reg,
		configs: NewConfigProviderIn(reg),
		tokens:  cpp.NewTokenCacheIn(reg),
		results: ccache.NewIn(reg),
		warm:    newWarmState(reg),
	}, nil
}

// Metrics returns the session's registry, which holds every counter the
// session's checks count into, a replacement result cache's included.
func (s *Session) Metrics() *metrics.Registry { return s.metrics }

// SetResultCache replaces the shared compile-result cache — e.g. with one
// warm-started from disk (ccache.Load) — or disables result caching
// entirely (nil). The session's registry adopts the new cache's counter
// series. Call it before the first Checker; verdicts and reported
// durations are identical either way, only real compute changes.
func (s *Session) SetResultCache(c *ccache.Cache) {
	s.results = c
	if c != nil {
		c.Register(s.metrics)
	}
}

// ResultCache returns the shared compile-result cache (nil when disabled),
// e.g. to persist it with ccache.Save after a window completes.
func (s *Session) ResultCache() *ccache.Cache { return s.results }

// ResultCacheStats snapshots the shared compile-result cache counters.
// Unlike the config/token counters these are warmth-dependent (a
// -cache-dir warm start converts misses to hits), so they belong with the
// volatile runtime metrics, never in the default reproducible report.
func (s *Session) ResultCacheStats() (ccache.StatsSet, bool) {
	if s.results == nil {
		return ccache.StatsSet{}, false
	}
	return s.results.Stats(), true
}

// EnableWarm is a no-op kept for callers written when warmth was opt-in:
// every Session is warm. Its checkers share per-arch Kconfig parses and
// valuations and credit cache-served work into saved-effective-time
// ledgers; reports are byte-identical either way — warmth only changes
// how much effective time a check costs, never what it says.
func (s *Session) EnableWarm() {}

// SavedEffective is the effective virtual time the session's warmth has
// saved so far: the warm_saved_ns config and set-up ledgers plus the
// result cache's saved total. Reported durations always charge the full
// cold price, so a caller differencing two readings around a check learns
// that check's effective cost (report total minus the difference).
func (s *Session) SavedEffective() time.Duration {
	saved := s.warm.configSaved.Duration() + s.warm.setupSaved.Duration()
	if s.results != nil {
		saved += s.results.Stats().SavedVirtual
	}
	return saved
}

// RefreshSummary reports what a Refresh invalidated.
type RefreshSummary struct {
	// MetaReloaded is true when Kbuild.meta changed: everything derived
	// from the base tree was rebuilt.
	MetaReloaded bool
	// ArchesRebuilt is true when a commit touched arch/: architecture
	// discovery and the arch-heuristic index were recomputed.
	ArchesRebuilt bool
	// KconfigReset is true when a Kconfig input changed and every cached
	// valuation was dropped.
	KconfigReset bool
	// ConfigsInvalidated lists architectures whose cached valuations were
	// dropped individually (empty when KconfigReset dropped them all).
	ConfigsInvalidated []string
	// SetupDropped counts warm set-up marks invalidated.
	SetupDropped int
}

// Refresh advances the session past a commit: given the tree after the
// commit and the commit's changed paths, it invalidates exactly the
// session state those paths could affect, so every later Checker answers
// as a cold session over the new tree would. Callers must not run
// checkers concurrently with Refresh.
//
// Invalidation rules, from most to least structural:
//
//   - Kbuild.meta        → reload metadata, rediscover architectures,
//     rebuild the arch index, drop every cached valuation and warm entry;
//   - any arch/<A>/ path → rediscover architectures and rebuild the arch
//     index (discovery and the §III-C heuristic both scan arch/), drop
//     <A>'s Kconfig parse, valuations and set-up state;
//   - any file named Kconfig* → drop every Kconfig parse, valuation and
//     set-up mark (a shared Kconfig file may be sourced by any root);
//   - any Makefile/Kbuild    → drop set-up marks (makefile parses are
//     keyed by content in kbuild and need no invalidation);
//   - .c/.h content          → nothing: the token, result and mutation
//     caches are content-keyed and self-invalidating.
//
// A Kbuild.meta that fails to load leaves the session on its old
// metadata, which no cold session over the new tree would hold: Refresh
// returns the load error, and every later Refresh retries the load and
// returns its error until the manifest loads again. The successful
// reload then drops everything, as any metadata change does.
//
// Everything dropped here is a pure recomputation; over-invalidating
// costs only effective time, never correctness, so ambiguous paths take
// the wider rule.
func (s *Session) Refresh(tree *fstree.Tree, changed []string) (RefreshSummary, error) {
	var sum RefreshSummary
	ch := classifyChanges(changed)
	if ch.meta || s.metaStale {
		meta, err := kbuild.LoadMeta(tree)
		if err != nil {
			s.metaStale = true
			return sum, fmt.Errorf("core: refresh: %w", err)
		}
		s.meta, s.metaStale = meta, false
		sum.MetaReloaded = true
		ch.arch = true    // rediscover against the new metadata
		ch.kconfig = true // drop everything valuation-shaped
	}
	if ch.arch {
		s.arches = kbuild.DiscoverArches(tree, s.meta)
		s.archIx = buildArchIndex(tree, s.arches)
		sum.ArchesRebuilt = true
		if !ch.kconfig {
			for _, a := range sortedKeys(ch.archNames) {
				s.configs.Invalidate(a)
				sum.ConfigsInvalidated = append(sum.ConfigsInvalidated, a)
			}
		}
	}
	if ch.kconfig {
		s.configs.InvalidateAll()
		sum.KconfigReset = true
	}
	switch {
	case ch.kconfig || ch.makefile:
		sum.SetupDropped += s.warm.dropAllSetup()
	case ch.arch:
		for _, a := range sortedKeys(ch.archNames) {
			sum.SetupDropped += s.warm.dropSetupArch(a)
		}
	}
	return sum, nil
}

// changeClass is what a commit's changed paths touch, in the terms of
// Refresh's invalidation rules.
type changeClass struct {
	meta, arch, kconfig, makefile bool
	// archNames holds A for every arch/<A>/ path.
	archNames map[string]bool
}

func classifyChanges(changed []string) changeClass {
	ch := changeClass{archNames: make(map[string]bool)}
	for _, p := range changed {
		p = fstree.Clean(p)
		base := p[strings.LastIndexByte(p, '/')+1:]
		if p == kbuild.MetaPath {
			ch.meta = true
		}
		if rest, ok := strings.CutPrefix(p, "arch/"); ok {
			ch.arch = true
			if i := strings.IndexByte(rest, '/'); i > 0 {
				ch.archNames[rest[:i]] = true
			}
		}
		if strings.HasPrefix(base, "Kconfig") {
			ch.kconfig = true
		}
		if base == "Makefile" || base == "Kbuild" {
			ch.makefile = true
		}
	}
	return ch
}

// Structural reports whether any changed path invalidates session-level
// state in Refresh (build metadata, architecture trees, Kconfig inputs,
// Makefiles), so a follower can say which commits paid for invalidation.
func Structural(changed []string) bool {
	ch := classifyChanges(changed)
	return ch.meta || ch.arch || ch.kconfig || ch.makefile
}

// sortedKeys returns the map's keys in deterministic order.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Checker builds a checker over one patch snapshot, reusing the session's
// shared state. Resilience state (fault injector, budget ledger, circuit
// breaker) is deliberately NOT shared: it lives per patch on the checker,
// configured via opts, so concurrent workers cannot perturb each other's
// fault sequences and same-seed runs stay deterministic.
func (s *Session) Checker(tree *fstree.Tree, model *vclock.Model, opts Options) *Checker {
	return &Checker{
		tree:      tree,
		model:     model,
		opts:      opts.withDefaults(),
		meta:      s.meta,
		arches:    s.arches,
		archIx:    s.archIx,
		configs:   s.configs,
		tokens:    s.tokens,
		results:   s.results,
		warm:      s.warm,
		makefiles: kbuild.NewMakefileCache(tree),
	}
}

// KconfigProvider adapts the session's shared per-arch Kconfig cache to
// the loader signature the whole-tree audit takes (audit.Params.Kconfig):
// architectures the session already discovered are served from the warm
// parse, anything else — e.g. a fixture corpus's pseudo-architecture —
// is linked from base through the session's parser, which parses each
// file content once. Kconfig inputs are window-invariant (see the
// Session doc), so serving a cached parse for any window snapshot is sound.
func (s *Session) KconfigProvider(base *fstree.Tree) func(archName, rootPath string) (*kconfig.Tree, error) {
	return func(archName, rootPath string) (*kconfig.Tree, error) {
		if a := s.arches[archName]; a != nil && a.KconfigRoot == rootPath {
			return s.configs.KconfigTree(base, a)
		}
		return s.configs.parser.Parse(kbuild.TreeSource{T: base}, rootPath)
	}
}

// ConfigCacheStats returns the shared Kconfig-valuation cache counters.
// Every valuation is computed exactly once under the provider's lock, so
// the counters are worker-count-invariant and safe to put in
// reproducible reports.
func (s *Session) ConfigCacheStats() CacheStats {
	return s.configs.Stats()
}

// TokenCacheStats returns the shared lexing cache counters, with the same
// worker-count invariance (each content key is computed exactly once).
func (s *Session) TokenCacheStats() CacheStats {
	h, m := s.tokens.Stats()
	return CacheStats{Hits: h, Misses: m}
}
