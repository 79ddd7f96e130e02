package core

import (
	"fmt"
	"sync"

	"jmake/internal/faultinject"
	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/metrics"
)

// ConfigProvider caches parsed Kconfig trees and computed configurations
// across patches. The evaluation re-creates configurations for every patch
// (the paper cleans the working tree between patches, so `make
// allyesconfig` runs again and its cost is charged again), but the
// *valuation* is identical as long as the Kconfig files are unchanged, so
// caching it is sound and keeps the 12,000-patch evaluation tractable.
//
// A ConfigProvider is safe for concurrent use by the evaluation workers
// and uses the per-key election pattern (the same discipline as
// cpp.TokenCache): the provider's mutex only guards the entry maps, never
// a computation. Concurrent first requests for one key elect a single
// computer via the entry's sync.Once and the rest wait on it, so every
// valuation is computed exactly once and the hit/miss counters are
// invariant under concurrency (misses always equal the number of distinct
// keys), keeping pipeline metrics reproducible across -workers settings.
// Crucially, workers computing *different* keys no longer serialize
// behind each other: parsing one arch's Kconfig tree or valuating
// allyesconfig happens outside the map lock.
type ConfigProvider struct {
	mu     sync.Mutex
	trees  map[string]*treeEntry
	values map[string]*valueEntry
	// parser parses every architecture's tree, so the files they all
	// source are parsed once per content. Its memo is bounded.
	parser *kconfig.Parser
	// Counter handles into the owning metrics registry — the registry is
	// the single home for these numbers; Stats() is a view over it.
	hits   *metrics.Counter
	misses *metrics.Counter
}

// treeEntry is one arch's parsed-Kconfig election slot.
type treeEntry struct {
	once sync.Once
	kt   *kconfig.Tree
	err  error
}

// valueEntry is one (arch, choice) valuation election slot.
type valueEntry struct {
	once    sync.Once
	cfg     *kconfig.Config
	symbols int
	err     error
}

// CacheStats are lookup counters for one shared cache.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns Hits over total lookups (0 when never used).
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewConfigProvider returns an empty provider counting into a private
// registry.
func NewConfigProvider() *ConfigProvider {
	return NewConfigProviderIn(metrics.NewRegistry())
}

// NewConfigProviderIn returns an empty provider whose counters are
// series in reg.
func NewConfigProviderIn(reg *metrics.Registry) *ConfigProvider {
	return &ConfigProvider{
		trees:  make(map[string]*treeEntry),
		values: make(map[string]*valueEntry),
		parser: kconfig.NewParser(),
		hits:   reg.Counter("config_cache_hits"),
		misses: reg.Counter("config_cache_misses"),
	}
}

// treeEntryFor returns the election slot for arch, creating it on first
// request. Only the map access is locked; parsing runs under the slot's
// once.
func (p *ConfigProvider) treeEntryFor(arch string) *treeEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.trees[arch]
	if !ok {
		e = &treeEntry{}
		p.trees[arch] = e
	}
	return e
}

// KconfigTree returns the parsed Kconfig hierarchy for an architecture,
// parsing it exactly once per arch no matter how many workers ask.
func (p *ConfigProvider) KconfigTree(t *fstree.Tree, arch *kbuild.Arch) (*kconfig.Tree, error) {
	e := p.treeEntryFor(arch.Name)
	e.once.Do(func() {
		kt, err := p.parser.Parse(kbuild.TreeSource{T: t}, arch.KconfigRoot)
		if err != nil {
			e.err = fmt.Errorf("core: parsing %s: %w", arch.KconfigRoot, err)
			// Do not cache failures: drop the slot so a later request
			// re-elects and retries (deterministic inputs will fail the
			// same way, but transiently injected tree states must not
			// poison the window).
			p.mu.Lock()
			if p.trees[arch.Name] == e {
				delete(p.trees, arch.Name)
			}
			p.mu.Unlock()
			return
		}
		e.kt = kt
	})
	return e.kt, e.err
}

// Get returns the configuration for (arch, choice), computing and caching
// it on first use. The returned symbol count prices the virtual
// `make allyesconfig` / defconfig invocation. inj optionally injects
// transient generation failures — the valuation cache cannot absorb
// those, because the paper's evaluation regenerates the configuration
// for every patch and any regeneration can fail; pass nil to disable.
//
// Counting discipline: the elected computer counts the miss; waiters and
// later callers count hits. Failed computations are never cached (the
// slot is dropped), and every caller that observes the failure counts a
// miss — so on the success path misses still equal distinct keys.
func (p *ConfigProvider) Get(t *fstree.Tree, arch *kbuild.Arch, choice ConfigChoice, inj *faultinject.Injector) (*kconfig.Config, int, error) {
	cfg, symbols, _, err := p.Lookup(t, arch, choice, inj)
	return cfg, symbols, err
}

// Lookup is Get additionally reporting whether the valuation was served
// from cache. The warm-session ledger uses the hit bit to credit the
// charged `make *config` price as saved effective time; the charge itself
// is unconditional either way, so reports stay byte-identical.
func (p *ConfigProvider) Lookup(t *fstree.Tree, arch *kbuild.Arch, choice ConfigChoice, inj *faultinject.Injector) (*kconfig.Config, int, bool, error) {
	if inj.FailConfig(arch.Name + ":" + choice.Kind.String() + choice.Path) {
		return nil, 0, false, fmt.Errorf("%w: config generation failed (%s, %s)",
			kbuild.ErrTransient, arch.Name, choice.Kind)
	}
	key := arch.Name + "|" + choice.Kind.String() + "|" + choice.Path
	p.mu.Lock()
	e, ok := p.values[key]
	if !ok {
		e = &valueEntry{}
		p.values[key] = e
	}
	p.mu.Unlock()

	won := false
	e.once.Do(func() {
		won = true
		e.cfg, e.symbols, e.err = p.compute(t, arch, choice)
		if e.err != nil {
			// Failed valuations are not cached: drop the slot so the next
			// request re-elects (and is counted as a fresh miss, matching
			// the pre-election counter semantics for error paths).
			p.mu.Lock()
			if p.values[key] == e {
				delete(p.values, key)
			}
			p.mu.Unlock()
		}
	})
	switch {
	case e.err != nil:
		p.misses.Inc()
		return nil, 0, false, e.err
	case won:
		p.misses.Inc()
	default:
		p.hits.Inc()
	}
	return e.cfg, e.symbols, !won, nil
}

// Invalidate drops every cached parse and valuation for one architecture.
// A commit-stream follower calls this when a commit touches the arch's
// Kconfig inputs: the next request re-parses and re-valuates against the
// advanced tree, so warm answers stay provably equal to a cold session's.
func (p *ConfigProvider) Invalidate(archName string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.trees, archName)
	prefix := archName + "|"
	for key := range p.values {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			delete(p.values, key)
		}
	}
}

// InvalidateAll drops every cached parse and valuation (shared Kconfig
// input changed — any arch's valuation may be stale).
func (p *ConfigProvider) InvalidateAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trees = make(map[string]*treeEntry)
	p.values = make(map[string]*valueEntry)
}

// compute performs one full valuation — Kconfig tree parse (itself a
// cached election) plus the choice's config derivation — outside any
// provider-wide lock.
func (p *ConfigProvider) compute(t *fstree.Tree, arch *kbuild.Arch, choice ConfigChoice) (*kconfig.Config, int, error) {
	kt, err := p.KconfigTree(t, arch)
	if err != nil {
		return nil, 0, err
	}
	var cfg *kconfig.Config
	switch choice.Kind {
	case ConfigAllMod:
		cfg = kt.AllModConfig()
	case ConfigDefconfig:
		content, rerr := t.Read(choice.Path)
		if rerr != nil {
			return nil, 0, fmt.Errorf("core: defconfig %s: %w", choice.Path, rerr)
		}
		cfg, err = kt.ApplyDefconfig(content)
		if err != nil {
			return nil, 0, fmt.Errorf("core: defconfig %s: %w", choice.Path, err)
		}
	default:
		cfg = kt.AllYesConfig()
	}
	return cfg, kt.Len(), nil
}

// Stats returns the valuation-cache counters (a view over the registry
// series).
func (p *ConfigProvider) Stats() CacheStats {
	return CacheStats{Hits: p.hits.Value(), Misses: p.misses.Value()}
}
