// Package ccache is a content-addressed compile-result cache: it memoizes
// preprocessing (.i) and compilation (.o) verdicts across builds, patches
// and — via the optional persistent tier — across runs.
//
// The key problem is the classic ccache one: which headers a translation
// unit depends on is only known *after* preprocessing it. The cache
// therefore stores manifests ("direct mode"): a probe hashes the invariant
// context (arch name, kconfig valuation fingerprint, cpp.Options
// fingerprint) together with the root file's content, then verifies each
// candidate entry's manifest — every file the original run read (path +
// content hash) and every path it probed and found absent — against the
// current tree. A manifest that verifies proves the entire include closure
// is unchanged, so the memoized verdict is exactly what recomputation
// would produce. Anything that can change a verdict misses: a mutated
// root or transitively included header, a created file that shadows an
// include, a different CONFIG_ valuation, different predefined macros
// (so allyes vs allmod vs MODULE=1 never cross-contaminate), or a
// different architecture. Kbuild reachability is deliberately NOT cached
// here — kbuild reads it from a descent memo that lives for one snapshot
// (kbuild.MakefileCache) — so Kbuild gate edits take effect in the next
// snapshot and Makefiles stay out of the manifest.
//
// The root path itself is excluded from the fingerprint so that
// identical-content translation units dedupe: a successful .i entry can
// be served for a different path by rewriting the root's line markers
// (serving is refused — a plain miss — if the quoted old path appears
// outside marker lines, e.g. via __FILE__, which would make the rewrite
// unsound). Failure entries embed paths in their message, so they only
// ever serve for the exact root path that produced them.
//
// Concurrency follows the TokenCache discipline: a per-probe-key
// in-flight election makes every distinct result computed exactly once,
// so hit/miss counters are worker-count-invariant. (They are NOT
// warmth-invariant — a warm start from disk legitimately converts misses
// to hits — which is why they live with the volatile runtime metrics,
// never in the default reproducible report.) The store itself is split
// into shards addressed by probe-key prefix, each with its own mutex, so
// workers probing different translation units never serialize on one
// lock; only the recency sequence is global (a single atomic counter).
package ccache

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jmake/internal/cc"
	"jmake/internal/cpp"
	"jmake/internal/metrics"
	"jmake/internal/vclock"
)

// Source supplies the content hash of every file a manifest names, for
// manifest building and verification (satisfied by kbuild.TreeSource,
// which memoizes each file version's hash). The hash is fstree.Hash of
// the content.
type Source interface {
	ReadHashed(path string) (content string, hash uint64, ok bool)
}

// Stage separates the two cached pipeline stages.
type Stage int

// Cache stages.
const (
	StageI Stage = iota // MakeI: preprocessing results
	StageO              // MakeO: compilation verdicts
	numStages
)

func (s Stage) String() string {
	if s == StageI {
		return "make_i"
	}
	return "make_o"
}

// Stats are one stage's counters, in the shape of a runtime report's
// result-cache stage. Hits and Misses are worker-count-invariant
// (compute-exactly-once); Deduped counts hits served for a fingerprint
// that was stored earlier in the same MakeI invocation (identical
// translation units preprocessed once per group).
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Deduped     uint64 `json:"deduped"`
	BytesServed uint64 `json:"bytes_served"`
	BytesStored uint64 `json:"bytes_stored"`
}

// HitRate is Hits / (Hits+Misses).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// StatsSet is a full cache snapshot.
type StatsSet struct {
	MakeI, MakeO Stats
	// Entries / Bytes describe the in-memory store right now.
	Entries int
	Bytes   int64
	// LoadedEntries counts entries warm-started from the persistent tier.
	LoadedEntries int
	// SavedVirtual is the effective virtual time the cache saved: for every
	// serve, the full recompute price minus the charged probe cost. The
	// reported per-patch durations always use the full price (so reports
	// are byte-identical with the cache on, off, warm or cold); this ledger
	// is where the cache's honest effective win is accounted.
	SavedVirtual time.Duration
	// The same ledger attributed per stage (SavedVirtual is their sum),
	// for the bench report's span attribution.
	SavedMakeI, SavedMakeO time.Duration
}

// dep is one manifest entry: a file the original run read (content hash)
// or probed and found absent.
type dep struct {
	Path   string `json:"p"`
	Hash   uint64 `json:"h,omitempty"`
	Absent bool   `json:"a,omitempty"`
}

// entry is one memoized verdict. Immutable after insertion except for
// lastUse, which is only touched under the cache lock.
type entry struct {
	stage    Stage
	ctx      uint64
	rootPath string
	deps     []dep // deps[0] is the root file
	id       uint64

	failed  bool
	errText string
	text    string // StageI success payload
	work    vclock.FileWork
	object  cc.Object // StageO success payload

	size    int64
	lastUse uint64
}

// stageSeries holds one stage's counter handles in the owning registry —
// the registry is the single home for these numbers; Stats() builds its
// snapshot as a view over it.
type stageSeries struct {
	hits, misses, deduped    *metrics.Counter
	bytesServed, bytesStored *metrics.Counter
	savedNS                  *metrics.Counter // effective ledger, integer ns
}

func (s stageSeries) snapshot() Stats {
	return Stats{
		Hits:        s.hits.Value(),
		Misses:      s.misses.Value(),
		Deduped:     s.deduped.Value(),
		BytesServed: s.bytesServed.Value(),
		BytesStored: s.bytesStored.Value(),
	}
}

// cacheShards is the shard count; a power of two so the shard index is a
// mask of the probe key's top bits.
const cacheShards = 16

// cacheShard is one independently locked slice of the store. An entry
// lives in the shard of its probe key; entryID includes every probe-key
// component (stage, context, root content hash via deps[0]), so the byID
// identity index can live shard-local too.
type cacheShard struct {
	mu       sync.Mutex
	index    map[uint64][]*entry // probe key -> candidate entries
	byID     map[uint64]*entry
	inflight map[uint64]chan struct{}
	bytes    int64
}

// Cache is the two-tier store. The zero value is not usable; call New.
type Cache struct {
	shards [cacheShards]cacheShard
	// seq is the global recency sequence: one atomic counter instead of a
	// lock gives LRU ordering a total order across shards.
	seq    atomic.Uint64
	series [numStages]stageSeries
	// loaded counts entries warm-started from the persistent tier
	// (result_cache_loaded_entries).
	loaded *metrics.Counter
	// loadFailures / saveFailures count persistence problems (corrupt or
	// version-mismatched files, dropped entries, failed writes). Cold-start
	// semantics are unchanged — these exist so an operator can tell "cold
	// by design" from "disk is eating the cache".
	loadFailures *metrics.Counter
	saveFailures *metrics.Counter
	warnOnce     sync.Once
}

// New returns an empty cache counting into a private registry.
func New() *Cache { return NewIn(metrics.NewRegistry()) }

// NewIn returns an empty cache whose counters are series in reg, so a
// shared session registry owns every cache's numbers.
func NewIn(reg *metrics.Registry) *Cache {
	c := &Cache{}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.index = make(map[uint64][]*entry)
		sh.byID = make(map[uint64]*entry)
		sh.inflight = make(map[uint64]chan struct{})
	}
	c.counters(func(ctr **metrics.Counter, name string, labels ...metrics.Label) {
		*ctr = reg.Counter(name, labels...)
	})
	return c
}

// Register makes reg report the cache's counter series as well as the
// registry the cache was made in, e.g. when a session adopts a cache built
// on its own (core.Session.SetResultCache).
func (c *Cache) Register(reg *metrics.Registry) {
	c.counters(func(ctr **metrics.Counter, name string, labels ...metrics.Label) {
		reg.Attach(*ctr, name, labels...)
	})
}

// counters calls fn with each of the cache's counter handles and the
// name and labels of its series.
func (c *Cache) counters(fn func(ctr **metrics.Counter, name string, labels ...metrics.Label)) {
	fn(&c.loaded, "result_cache_loaded_entries")
	fn(&c.loadFailures, "ccache_load_failures")
	fn(&c.saveFailures, "ccache_save_failures")
	for s := StageI; s < numStages; s++ {
		l, ss := metrics.L("stage", s.String()), &c.series[s]
		fn(&ss.hits, "result_cache_hits", l)
		fn(&ss.misses, "result_cache_misses", l)
		fn(&ss.deduped, "result_cache_deduped", l)
		fn(&ss.bytesServed, "result_cache_bytes_served", l)
		fn(&ss.bytesStored, "result_cache_bytes_stored", l)
		fn(&ss.savedNS, "result_cache_saved_ns", l)
	}
}

// shardFor maps a probe key to its shard by prefix (top bits).
func (c *Cache) shardFor(pk uint64) *cacheShard {
	return &c.shards[pk>>(64-4)] // top log2(cacheShards) bits
}

// Stats snapshots the counters. Shards are visited in turn, so the
// entry/byte totals are a consistent sum of per-shard snapshots (exact
// whenever no store races the call, which is when the numbers matter).
func (c *Cache) Stats() StatsSet {
	var entries int
	var bytes int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += len(sh.byID)
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	savedI := c.series[StageI].savedNS.Duration()
	savedO := c.series[StageO].savedNS.Duration()
	return StatsSet{
		MakeI:         c.series[StageI].snapshot(),
		MakeO:         c.series[StageO].snapshot(),
		Entries:       entries,
		Bytes:         bytes,
		LoadedEntries: int(c.loaded.Value()),
		SavedVirtual:  savedI + savedO,
		SavedMakeI:    savedI,
		SavedMakeO:    savedO,
	}
}

// AddSaved credits the stage's effective-time ledger (full price minus
// probe cost for one serve). A nil cache keeps no ledger.
func (c *Cache) AddSaved(stage Stage, d time.Duration) {
	if c == nil {
		return
	}
	c.series[stage].savedNS.AddDuration(d)
}

// Dependents reports, for each queried path, the distinct root files of
// live manifests whose include closure recorded that path — read with a
// content hash, or probed and found absent. This is the reverse
// dependency view a commit-stream follower needs: exactly the
// translation units whose cached verdicts a change to that path can
// invalidate (any other entry's manifest cannot mention the path, so its
// verdict provably survives the change). The root file is not listed as
// its own dependent; per-path results are sorted for determinism.
func (c *Cache) Dependents(paths []string) map[string][]string {
	want := make(map[string]bool, len(paths))
	for _, p := range paths {
		want[p] = true
	}
	found := make(map[string]map[string]bool)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.byID {
			for _, d := range e.deps[1:] {
				if want[d.Path] {
					m := found[d.Path]
					if m == nil {
						m = make(map[string]bool)
						found[d.Path] = m
					}
					m[e.rootPath] = true
				}
			}
		}
		sh.mu.Unlock()
	}
	out := make(map[string][]string, len(found))
	for p, m := range found {
		roots := make([]string, 0, len(m))
		for r := range m {
			roots = append(roots, r)
		}
		sort.Strings(roots)
		out[p] = roots
	}
	return out
}

// NoteDedup counts one within-invocation dedupe hit. A nil cache counts
// nothing.
func (c *Cache) NoteDedup(stage Stage) {
	if c == nil {
		return
	}
	c.series[stage].deduped.Inc()
}

func hashU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(b[:])
}

func probeKey(stage Stage, ctx, rootHash uint64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte{byte(stage)})
	hashU64(h, ctx)
	hashU64(h, rootHash)
	return h.Sum64()
}

// OptionsFingerprint hashes the verdict-relevant cpp.Options fields:
// include search order, predefined macros, and nesting bound. The define
// set enters as its digest, memoized on a shared Predefined set and equal
// to cpp.DefinesDigest of a plain Defines map, so either Options form
// yields the same fingerprint. The token cache is a pure memoization and
// is excluded.
func OptionsFingerprint(o cpp.Options) uint64 {
	h := fnv.New64a()
	for _, d := range o.IncludeDirs {
		_, _ = h.Write([]byte(d))
		_, _ = h.Write([]byte{0})
	}
	_, _ = h.Write([]byte{1})
	if o.Predefined != nil {
		hashU64(h, o.Predefined.Digest())
	} else {
		hashU64(h, cpp.DefinesDigest(o.Defines))
	}
	hashU64(h, uint64(o.MaxDepth))
	return h.Sum64()
}

// Context pins the invariant key components — stage, architecture,
// config fingerprint, options fingerprint — for a sequence of probes.
type Context struct {
	c   *Cache
	stg Stage
	ctx uint64
}

// Context builds a probe context. A nil cache yields probes that compute
// their key and always miss (see Probe).
func (c *Cache) Context(stage Stage, archName string, configFP, optsFP uint64) Context {
	h := fnv.New64a()
	_, _ = h.Write([]byte{byte(stage)})
	_, _ = h.Write([]byte(archName))
	_, _ = h.Write([]byte{0})
	hashU64(h, configFP)
	hashU64(h, optsFP)
	return Context{c: c, stg: stage, ctx: h.Sum64()}
}

// Probe is the result of one lookup. On a hit the payload fields are
// filled and the probe is finished. On a miss the caller holds the
// probe key's in-flight slot and MUST finish the probe with exactly one
// of StoreI / StoreO / StoreFailure / Cancel — other workers probing the
// same key wait until then (compute-exactly-once). A probe of a nil
// cache still computes its Key, always misses, and counts and stores
// nothing, so a builder runs one path with the cache on or off.
type Probe struct {
	c        *Cache
	stg      Stage
	ctx      uint64
	src      Source
	rootPath string
	rootHash uint64
	done     bool

	// Key identifies the probe (context + root content); the builder uses
	// it to detect within-invocation dedupe.
	Key uint64
	// Hit reports whether a verified entry was served.
	Hit bool
	// Deps is the number of manifest entries verified for the hit,
	// for probe pricing (vclock.Model.CacheProbe).
	Deps int

	// Served payload (valid when Hit).
	Failed  bool
	ErrText string
	Text    string
	Work    vclock.FileWork
	Object  cc.Object
}

// Probe looks up the verdict for rootPath against src.
func (cx Context) Probe(src Source, rootPath string) *Probe {
	p := &Probe{c: cx.c, stg: cx.stg, ctx: cx.ctx, src: src, rootPath: rootPath}
	_, rootHash, ok := src.ReadHashed(rootPath)
	if ok {
		p.rootHash = rootHash
		p.Key = probeKey(cx.stg, cx.ctx, rootHash)
	}
	c := cx.c
	if c == nil || !ok {
		// No cache, or an unreadable root with nothing to fingerprint (the
		// preprocessor will report the real error): the caller recomputes
		// and Store becomes a no-op. Only a cache counts the failed lookup.
		if c != nil {
			c.series[cx.stg].misses.Inc()
		}
		p.done = true
		return p
	}
	sh := c.shardFor(p.Key)
	for {
		sh.mu.Lock()
		if ch, busy := sh.inflight[p.Key]; busy {
			sh.mu.Unlock()
			<-ch
			continue
		}
		cands := append([]*entry(nil), sh.index[p.Key]...)
		ch := make(chan struct{})
		sh.inflight[p.Key] = ch
		sh.mu.Unlock()

		// Verify manifests against the current tree outside the lock;
		// entries are immutable and no other worker can insert under this
		// key while we hold the in-flight slot.
		for _, e := range cands {
			text, ok := p.tryServe(e)
			if !ok {
				continue
			}
			sh.mu.Lock()
			e.lastUse = c.seq.Add(1)
			delete(sh.inflight, p.Key)
			sh.mu.Unlock()
			c.series[p.stg].hits.Inc()
			c.series[p.stg].bytesServed.Add(uint64(e.size))
			close(ch)
			p.Hit = true
			p.Deps = len(e.deps)
			p.Failed = e.failed
			p.ErrText = e.errText
			p.Text = text
			p.Work = e.work
			p.Object = e.object
			p.done = true
			return p
		}
		// Miss: keep the in-flight slot until Store*/Cancel.
		return p
	}
}

// tryServe verifies e's manifest for this probe and returns the (possibly
// root-remapped) .i text.
func (p *Probe) tryServe(e *entry) (string, bool) {
	if e.ctx != p.ctx || e.stage != p.stg {
		return "", false
	}
	if len(e.deps) == 0 || e.deps[0].Hash != p.rootHash {
		return "", false
	}
	// Failures embed the root path in their message: exact path only.
	if e.failed && e.rootPath != p.rootPath {
		return "", false
	}
	for _, d := range e.deps[1:] {
		// A file probed absent must still be absent, and a file read must
		// still hold the same content.
		_, h, ok := p.src.ReadHashed(d.Path)
		if ok == d.Absent || ok && h != d.Hash {
			return "", false
		}
	}
	if e.failed || e.stage == StageO || e.rootPath == p.rootPath {
		return e.text, true
	}
	return remapRoot(e.text, e.rootPath, p.rootPath)
}

// remapRoot rewrites the gcc-style line markers that name oldPath so a
// cached .i text serves an identical-content file at newPath. Markers and
// the __FILE__ builtin both embed the Go-quoted path; only marker lines
// are rewritten, and if the quoted old path appears anywhere else (a
// __FILE__ expansion or a source literal spelling the path) the rewrite
// would be unsound, so serving is refused.
func remapRoot(text, oldPath, newPath string) (string, bool) {
	oldQ := strconv.Quote(oldPath)
	if !strings.Contains(text, oldQ) {
		return text, true
	}
	newQ := strconv.Quote(newPath)
	lines := strings.Split(text, "\n")
	for i, ln := range lines {
		if rest, ok := strings.CutPrefix(ln, "# "); ok {
			if j := strings.IndexByte(rest, ' '); j > 0 && isDigits(rest[:j]) {
				q := rest[j+1:]
				if q == oldQ || strings.HasPrefix(q, oldQ+" ") {
					lines[i] = "# " + rest[:j] + " " + newQ + q[len(oldQ):]
					continue
				}
				// A marker for another file cannot contain the quoted old
				// path (an interior '"' would have been escaped).
				continue
			}
		}
		if strings.Contains(ln, oldQ) {
			return "", false
		}
	}
	return strings.Join(lines, "\n"), true
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// buildDeps hashes the closure reported by the preprocessor against the
// probe's tree. inputs[0] is normally the root file; it is forced to the
// front so deps[0] is always the root.
func (p *Probe) buildDeps(inputs, missing []string) []dep {
	deps := make([]dep, 0, len(inputs)+len(missing))
	deps = append(deps, dep{Path: p.rootPath, Hash: p.rootHash})
	for _, in := range inputs {
		if in == p.rootPath {
			continue
		}
		_, h, ok := p.src.ReadHashed(in)
		if !ok {
			// The tree changed mid-run (cannot happen on the single-threaded
			// builder path); treat as unhashable.
			return nil
		}
		deps = append(deps, dep{Path: in, Hash: h})
	}
	for _, m := range missing {
		deps = append(deps, dep{Path: m, Absent: true})
	}
	return deps
}

// StoreI finishes a miss with a successful preprocessing result.
func (p *Probe) StoreI(inputs, missing []string, text string, work vclock.FileWork) {
	p.store(inputs, missing, &entry{stage: StageI, text: text, work: work})
}

// StoreO finishes a miss with a successful compilation verdict.
func (p *Probe) StoreO(inputs, missing []string, obj cc.Object) {
	p.store(inputs, missing, &entry{stage: StageO, object: obj})
}

// StoreFailure finishes a miss with a genuine (deterministic) failure.
// Injected faults must never reach here: the builder rolls them before
// probing, so fault outcomes are neither stored nor served.
func (p *Probe) StoreFailure(inputs, missing []string, errText string) {
	p.store(inputs, missing, &entry{stage: p.stg, failed: true, errText: errText})
}

// Cancel finishes a miss without storing (counts as a plain miss).
func (p *Probe) Cancel() { p.store(nil, nil, nil) }

// store finishes a miss, inserting e (when non-nil) with the manifest of
// inputs and missing. A finished probe returns before hashing the
// closure.
func (p *Probe) store(inputs, missing []string, e *entry) {
	if p.done {
		return
	}
	p.done = true
	if e != nil {
		e.ctx, e.rootPath, e.deps = p.ctx, p.rootPath, p.buildDeps(inputs, missing)
	}
	c := p.c
	sh := c.shardFor(p.Key)
	sh.mu.Lock()
	c.series[p.stg].misses.Inc()
	if e != nil && len(e.deps) > 0 {
		e.id = entryID(e)
		e.size = entrySize(e)
		c.insertLocked(sh, e)
		c.series[p.stg].bytesStored.Add(uint64(e.size))
	}
	ch := sh.inflight[p.Key]
	delete(sh.inflight, p.Key)
	sh.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// insertLocked adds e to sh (which must be the shard of e's probe key and
// be held locked), replacing any entry with the same identity (same
// stage, context, root path and manifest).
func (c *Cache) insertLocked(sh *cacheShard, e *entry) {
	e.lastUse = c.seq.Add(1)
	if old, ok := sh.byID[e.id]; ok {
		c.removeLocked(sh, old)
	}
	sh.byID[e.id] = e
	pk := probeKey(e.stage, e.ctx, e.deps[0].Hash)
	sh.index[pk] = append(sh.index[pk], e)
	sh.bytes += e.size
}

func (c *Cache) removeLocked(sh *cacheShard, e *entry) {
	delete(sh.byID, e.id)
	pk := probeKey(e.stage, e.ctx, e.deps[0].Hash)
	list := sh.index[pk]
	for i, x := range list {
		if x == e {
			sh.index[pk] = append(list[:i:i], list[i+1:]...)
			break
		}
	}
	if len(sh.index[pk]) == 0 {
		delete(sh.index, pk)
	}
	sh.bytes -= e.size
}

// entryID identifies an entry by everything key-side: stage, context,
// root path and full manifest. Deterministic recomputation cannot attach
// two payloads to one identity, so duplicates are safe to replace.
func entryID(e *entry) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte{byte(e.stage)})
	hashU64(h, e.ctx)
	_, _ = h.Write([]byte(e.rootPath))
	_, _ = h.Write([]byte{0})
	for _, d := range e.deps {
		_, _ = h.Write([]byte(d.Path))
		_, _ = h.Write([]byte{0})
		hashU64(h, d.Hash)
		if d.Absent {
			_, _ = h.Write([]byte{1})
		}
	}
	return h.Sum64()
}

func entrySize(e *entry) int64 {
	n := int64(len(e.text) + len(e.errText) + len(e.rootPath) + 64)
	for _, d := range e.deps {
		n += int64(len(d.Path)) + 16
	}
	for _, f := range e.object.Defined {
		n += int64(len(f))
	}
	return n
}
