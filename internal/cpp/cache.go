package cpp

import (
	"sync"

	"jmake/internal/metrics"
)

// TokenCache memoizes the per-file scanning work (translation phases 2
// and 3, tokenization and #define parsing) keyed by content identity —
// the content bytes alone, never the path. Headers like the kernel's
// common includes are preprocessed thousands of times across an
// evaluation with identical content, frequently under *different* paths
// (the same header reached via different include dirs, or identical
// files in sibling drivers); all of them share one entry. Conditional
// evaluation and macro expansion still run per inclusion (they depend on
// the macro state), but the lexing does not.
//
// An entry is one immutable record (scanned): the content's logical
// lines as one string, plus line and token records that hold offsets
// into it and no pointers, so a resident cache costs the collector
// almost nothing to mark. A run builds the Tokens of one line at a time
// from the records, into one buffer of its own that the next line
// overwrites. Each #define is parsed once per content, and its Macro is
// shared by every run that reaches the line; nothing writes to a Macro
// (see Macro.Body).
//
// A TokenCache is safe for concurrent use. Each key is computed exactly
// once: concurrent first requests for the same content elect one computer
// and the rest wait on it, so the miss count equals the number of distinct
// contents regardless of worker count or interleaving — which keeps cache
// statistics reproducible across -workers settings. The store is split
// into shards addressed by key prefix so workers scanning different files
// never contend on one mutex, and each bucket chains entries whose
// content is verified on every lookup — an FNV-64 collision can therefore
// never serve the wrong record; it only widens one bucket.
type TokenCache struct {
	shards [tokenShards]tokenShard
	// Predefined macro sets, elected per key exactly like file entries.
	// Cardinality is tiny (arches x configurations x MODULE flag), so one
	// mutex suffices; the build itself runs outside it under the entry's
	// once.
	preMu  sync.Mutex
	preSet map[uint64]*predefEntry
	// Lookup counters live in the owning registry (metrics.Registry is
	// the single home for every pipeline counter); these are handles to
	// the "token_cache_hits"/"token_cache_misses" series.
	hits   *metrics.Counter
	misses *metrics.Counter
}

type predefEntry struct {
	once sync.Once
	pre  *Predefined
}

// tokenShards is the shard count; a power of two so the shard index is a
// mask of the key's top bits. 16 comfortably exceeds the paper's 25
// worker processes' realistic simultaneous-scan overlap.
const tokenShards = 16

type tokenShard struct {
	mu sync.Mutex
	// entries chains cached files per 64-bit key: every entry in a chain
	// has the same FNV-64 but (on collision) different content, and
	// lookups compare content before serving.
	entries map[uint64][]*cachedFile
}

type cachedFile struct {
	once sync.Once
	// content is the exact bytes this entry was keyed from; lookups
	// verify it so a hash collision is a chain scan, never a wrong serve.
	content string
	// path records the first path the content was seen under — debug
	// info only, never part of the key.
	path string
	s    *scanned
}

// NewTokenCache returns an empty cache counting into a private registry.
func NewTokenCache() *TokenCache {
	return NewTokenCacheIn(metrics.NewRegistry())
}

// NewTokenCacheIn returns an empty cache whose counters are series in
// reg, so a shared session registry owns every cache's numbers.
func NewTokenCacheIn(reg *metrics.Registry) *TokenCache {
	c := &TokenCache{
		preSet: make(map[uint64]*predefEntry),
		hits:   reg.Counter("token_cache_hits"),
		misses: reg.Counter("token_cache_misses"),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[uint64][]*cachedFile)
	}
	return c
}

// shardFor maps a key to its shard by prefix (top bits).
func (c *TokenCache) shardFor(key uint64) *tokenShard {
	return &c.shards[key>>(64-4)] // top log2(tokenShards) bits
}

// scan returns the scanned record of content, from the cache when
// possible. key is fstree.Hash(content), the content alone, so two paths
// holding identical bytes share one entry; path is carried as debug
// information only.
func (c *TokenCache) scan(path, content string, key uint64) *scanned {
	sh := c.shardFor(key)
	sh.mu.Lock()
	var e *cachedFile
	for _, cand := range sh.entries[key] {
		if cand.content == content {
			e = cand
			break
		}
	}
	if e != nil {
		c.hits.Inc()
	} else {
		e = &cachedFile{content: content, path: path}
		sh.entries[key] = append(sh.entries[key], e)
		c.misses.Inc()
	}
	sh.mu.Unlock()

	e.once.Do(func() { e.s = scan(content) })
	return e.s
}

// PredefinedFor returns the shared pre-lexed macro set for key, building
// it at most once per cache via build(). The key must fully identify the
// define set's content (kbuild hashes the arch name, the configuration
// fingerprint and the MODULE flag); concurrent first requests elect one
// builder and the rest wait, the same discipline as scan.
func (c *TokenCache) PredefinedFor(key uint64, build func() map[string]string) *Predefined {
	c.preMu.Lock()
	e, ok := c.preSet[key]
	if !ok {
		e = &predefEntry{}
		c.preSet[key] = e
	}
	c.preMu.Unlock()
	e.once.Do(func() { e.pre = NewPredefined(build()) })
	return e.pre
}

// Len returns the number of cached files.
func (c *TokenCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, chain := range sh.entries {
			n += len(chain)
		}
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the lookup counters (a view over the registry series).
// Misses equal the number of distinct contents ever requested, so both
// values are invariant under concurrency.
func (c *TokenCache) Stats() (hits, misses uint64) {
	return c.hits.Value(), c.misses.Value()
}
