package ccache

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"jmake/internal/cc"
	"jmake/internal/fstree"
	"jmake/internal/metrics"
	"jmake/internal/vclock"
)

// persistVersion guards the on-disk format: a file written by a different
// version is ignored wholesale (cold start, never an error). Version 2
// keys entries by options fingerprints that fold a define-set digest.
// Version 3: a stored StageO failure names a header whose path holds '"'
// or '\' by its whole path, because cc unquotes line-marker file names.
const persistVersion = 3

// persistFile is the cache's file name under the -cache-dir directory.
const persistFile = "jmake-ccache.json"

// DefaultMaxBytes bounds the persisted tier when the caller passes 0.
const DefaultMaxBytes = 64 << 20

// diskFile is the versioned on-disk format: one JSON document holding the
// most-recently-used entries, each with an integrity checksum.
type diskFile struct {
	Version int         `json:"version"`
	Entries []diskEntry `json:"entries"`
}

type diskEntry struct {
	Stage  int             `json:"stage"`
	Ctx    uint64          `json:"ctx"`
	Root   string          `json:"root"`
	Deps   []dep           `json:"deps"`
	Failed bool            `json:"failed,omitempty"`
	Err    string          `json:"err,omitempty"`
	Text   string          `json:"text,omitempty"`
	Work   vclock.FileWork `json:"work"`
	Object cc.Object       `json:"object"`
	// Check is a content checksum over every other field; entries that do
	// not verify are dropped silently (corrupt entry = miss, never error).
	Check uint64 `json:"check"`
}

func (d *diskEntry) checksum() uint64 {
	e := d.toEntry()
	h := entryID(e)
	// Fold the payload in on top of the key-side identity.
	return h ^ fstree.Hash(d.Err) ^ fstree.Hash(d.Text) ^
		uint64(d.Work.Lines)<<32 ^ uint64(d.Work.Includes) ^
		uint64(d.Object.Lines)<<16 ^ uint64(d.Object.Functions) ^
		uint64(boolBit(d.Failed))<<63 ^ hashStrings(d.Object.Defined)
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

func hashStrings(ss []string) uint64 {
	var h uint64 = 1469598103934665603
	for _, s := range ss {
		h ^= fstree.Hash(s)
		h *= 1099511628211
	}
	return h
}

func (d *diskEntry) toEntry() *entry {
	return &entry{
		stage:    Stage(d.Stage),
		ctx:      d.Ctx,
		rootPath: d.Root,
		deps:     d.Deps,
		failed:   d.Failed,
		errText:  d.Err,
		text:     d.Text,
		work:     d.Work,
		object:   d.Object,
	}
}

// notePersistFailure counts one persistence problem and logs a single
// stderr warning for the cache's lifetime. The failure never changes
// behavior (cold start / lost entries only), but it must not be silent:
// a daemon operator watching ccache_load_failures/ccache_save_failures
// can tell "cold by design" from "disk is eating the cache".
func (c *Cache) notePersistFailure(counter *metrics.Counter, n uint64, what string) {
	counter.Add(n)
	c.warnOnce.Do(func() {
		log.Printf("ccache: %s (cache stays best-effort; watch ccache_load_failures/ccache_save_failures for recurrence)", what)
	})
}

// Load warm-starts the cache from dir. It is strictly best-effort: a
// missing, unreadable, version-mismatched or corrupt file (or corrupt
// individual entries) leaves the cache cold — persistence failures must
// never change verdicts, only hit rates. A missing file is cold by
// design; every other failure is counted in ccache_load_failures.
func (c *Cache) Load(dir string) {
	raw, err := os.ReadFile(filepath.Join(dir, persistFile))
	if err != nil {
		if !os.IsNotExist(err) {
			c.notePersistFailure(c.loadFailures, 1, fmt.Sprintf("reading persistent tier: %v", err))
		}
		return
	}
	var df diskFile
	if json.Unmarshal(raw, &df) != nil {
		c.notePersistFailure(c.loadFailures, 1, fmt.Sprintf("corrupt persistent tier %s: not valid JSON", filepath.Join(dir, persistFile)))
		return
	}
	if df.Version != persistVersion {
		c.notePersistFailure(c.loadFailures, 1, fmt.Sprintf("persistent tier version %d != %d: ignoring file", df.Version, persistVersion))
		return
	}
	dropped := 0
	// The file is MRU-first; insert in reverse so recency survives the
	// round-trip (insertLocked stamps increasing use sequence numbers).
	// Each entry goes to the shard of its probe key; taking that shard's
	// lock per insert is fine on this cold path.
	for i := len(df.Entries) - 1; i >= 0; i-- {
		d := &df.Entries[i]
		if d.Stage < 0 || Stage(d.Stage) >= numStages || len(d.Deps) == 0 {
			dropped++
			continue
		}
		if d.checksum() != d.Check {
			dropped++
			continue
		}
		e := d.toEntry()
		e.id = entryID(e)
		e.size = entrySize(e)
		sh := c.shardFor(probeKey(e.stage, e.ctx, e.deps[0].Hash))
		sh.mu.Lock()
		if _, dup := sh.byID[e.id]; dup {
			sh.mu.Unlock()
			continue
		}
		c.insertLocked(sh, e)
		sh.mu.Unlock()
		c.loaded.Inc()
	}
	if dropped > 0 {
		c.notePersistFailure(c.loadFailures, uint64(dropped), fmt.Sprintf("dropped %d corrupt entries from persistent tier", dropped))
	}
}

// Save persists the most-recently-used entries to dir, bounded by
// maxBytes of payload (0 = DefaultMaxBytes). The write is atomic
// (temp file + rename) so a crashed run cannot leave a torn cache.
func (c *Cache) Save(dir string, maxBytes int64) error {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	var entries []*entry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.byID {
			entries = append(entries, e)
		}
		sh.mu.Unlock()
	}
	// LRU bound: newest use first, cut at the byte budget (the global
	// atomic sequence gives lastUse a total order across shards).
	sort.Slice(entries, func(i, j int) bool { return entries[i].lastUse > entries[j].lastUse })
	df := diskFile{Version: persistVersion}
	var total int64
	for _, e := range entries {
		if total+e.size > maxBytes {
			break
		}
		total += e.size
		d := diskEntry{
			Stage: int(e.stage), Ctx: e.ctx, Root: e.rootPath, Deps: e.deps,
			Failed: e.failed, Err: e.errText, Text: e.text,
			Work: e.work, Object: e.object,
		}
		d.Check = d.checksum()
		df.Entries = append(df.Entries, d)
	}
	raw, err := json.Marshal(&df)
	if err != nil {
		c.notePersistFailure(c.saveFailures, 1, fmt.Sprintf("encoding persistent tier: %v", err))
		return fmt.Errorf("ccache: encoding: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.notePersistFailure(c.saveFailures, 1, fmt.Sprintf("saving persistent tier: %v", err))
		return fmt.Errorf("ccache: %w", err)
	}
	tmp := filepath.Join(dir, persistFile+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		c.notePersistFailure(c.saveFailures, 1, fmt.Sprintf("saving persistent tier: %v", err))
		return fmt.Errorf("ccache: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, persistFile)); err != nil {
		c.notePersistFailure(c.saveFailures, 1, fmt.Sprintf("saving persistent tier: %v", err))
		return fmt.Errorf("ccache: %w", err)
	}
	return nil
}
