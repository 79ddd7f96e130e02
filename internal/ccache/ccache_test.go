package ccache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"jmake/internal/cc"
	"jmake/internal/cpp"
	"jmake/internal/fstree"
	"jmake/internal/metrics"
	"jmake/internal/vclock"
)

func optsWith(dirs []string, defines map[string]string, depth int) cpp.Options {
	return cpp.Options{IncludeDirs: dirs, Defines: defines, MaxDepth: depth}
}

// mapSource is a trivial Source over a mutable file map.
type mapSource map[string]string

func (m mapSource) ReadHashed(p string) (string, uint64, bool) {
	s, ok := m[p]
	return s, fstree.Hash(s), ok
}

func testSource() mapSource {
	return mapSource{
		"drivers/a.c":     "#include <sub.h>\nint f(void) { return X; }\n",
		"include/sub.h":   "#include <deep.h>\n#define X 1\n",
		"include/deep.h":  "typedef int deep_t;\n",
		"drivers/same.c":  "#include <sub.h>\nint f(void) { return X; }\n",
		"drivers/other.c": "int g(void) { return 2; }\n",
	}
}

const rootText = "# 1 \"drivers/a.c\"\n# 1 \"include/sub.h\" 1\nint body;\n# 2 \"drivers/a.c\" 2\nint f(void) { return 1; }\n"

var (
	testInputs  = []string{"drivers/a.c", "include/sub.h", "include/deep.h"}
	testMissing = []string{"drivers/sub.h"} // probed before include/ and absent
	testWork    = vclock.FileWork{Lines: 40, Includes: 2}
)

func storeOne(t *testing.T, c *Cache, src mapSource) Context {
	t.Helper()
	cx := c.Context(StageI, "x86", 11, 22)
	p := cx.Probe(src, "drivers/a.c")
	if p.Hit {
		t.Fatalf("unexpected hit on empty cache")
	}
	p.StoreI(testInputs, testMissing, rootText, testWork)
	return cx
}

func TestStoreAndHit(t *testing.T) {
	src := testSource()
	c := New()
	cx := storeOne(t, c, src)

	p := cx.Probe(src, "drivers/a.c")
	if !p.Hit {
		t.Fatalf("expected hit after store")
	}
	if p.Text != rootText || p.Work != testWork || p.Failed {
		t.Fatalf("served payload mismatch: %+v", p)
	}
	if p.Deps != len(testInputs)+len(testMissing) {
		t.Fatalf("Deps = %d, want %d", p.Deps, len(testInputs)+len(testMissing))
	}
	st := c.Stats()
	if st.MakeI.Hits != 1 || st.MakeI.Misses != 1 {
		t.Fatalf("stats = %+v", st.MakeI)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("entries/bytes = %d/%d", st.Entries, st.Bytes)
	}
}

// Mutating any file of the include closure — even a transitive header the
// root never names directly — must invalidate.
func TestTransitiveDepInvalidation(t *testing.T) {
	src := testSource()
	c := New()
	cx := storeOne(t, c, src)

	src["include/deep.h"] = "typedef long deep_t;\n"
	p := cx.Probe(src, "drivers/a.c")
	if p.Hit {
		t.Fatalf("expected miss after transitive header edit")
	}
	p.Cancel()

	// Restoring the original content makes the old entry valid again.
	src["include/deep.h"] = testSource()["include/deep.h"]
	if p := cx.Probe(src, "drivers/a.c"); !p.Hit {
		t.Fatalf("expected hit after restoring header")
	}
}

// Creating a file at a path the original run probed and found absent must
// invalidate: the new file would shadow the include that was used.
func TestAbsentDepInvalidation(t *testing.T) {
	src := testSource()
	c := New()
	cx := storeOne(t, c, src)

	src["drivers/sub.h"] = "#define X 9\n"
	p := cx.Probe(src, "drivers/a.c")
	if p.Hit {
		t.Fatalf("expected miss after creating a shadowing header")
	}
	p.Cancel()
}

func TestContextSeparation(t *testing.T) {
	src := testSource()
	c := New()
	storeOne(t, c, src)

	for name, cx := range map[string]Context{
		"arch":   c.Context(StageI, "arm", 11, 22),
		"config": c.Context(StageI, "x86", 12, 22),
		"opts":   c.Context(StageI, "x86", 11, 23),
		"stage":  c.Context(StageO, "x86", 11, 22),
	} {
		p := cx.Probe(src, "drivers/a.c")
		if p.Hit {
			t.Fatalf("%s: expected miss under different context", name)
		}
		p.Cancel()
	}
}

// An identical-content file at a different path is served with the root's
// line markers rewritten.
func TestRootRemap(t *testing.T) {
	src := testSource()
	c := New()
	cx := storeOne(t, c, src)

	p := cx.Probe(src, "drivers/same.c")
	if !p.Hit {
		t.Fatalf("expected dedupe hit for identical content at a new path")
	}
	want := "# 1 \"drivers/same.c\"\n# 1 \"include/sub.h\" 1\nint body;\n# 2 \"drivers/same.c\" 2\nint f(void) { return 1; }\n"
	if p.Text != want {
		t.Fatalf("remapped text:\n%q\nwant:\n%q", p.Text, want)
	}
}

// If the quoted root path appears outside marker lines (__FILE__ expansion
// or a string literal spelling the path), remapping would corrupt the
// payload, so serving is refused.
func TestRootRemapRefused(t *testing.T) {
	src := testSource()
	c := New()
	cx := c.Context(StageI, "x86", 11, 22)
	p := cx.Probe(src, "drivers/a.c")
	text := "# 1 \"drivers/a.c\"\nconst char *f = \"drivers/a.c\";\n"
	p.StoreI(testInputs, nil, text, testWork)

	// Exact path still serves verbatim.
	if p := cx.Probe(src, "drivers/a.c"); !p.Hit || p.Text != text {
		t.Fatalf("same-path serve failed: %+v", p)
	}
	// Different path must refuse (counted as a miss).
	p2 := cx.Probe(src, "drivers/same.c")
	if p2.Hit {
		t.Fatalf("expected refusal for __FILE__-style payload")
	}
	p2.Cancel()
}

// Failure entries embed the root path in their message, so they serve only
// for the exact path that produced them.
func TestFailureExactPathOnly(t *testing.T) {
	src := testSource()
	c := New()
	cx := c.Context(StageI, "x86", 11, 22)
	p := cx.Probe(src, "drivers/a.c")
	p.StoreFailure(testInputs, nil, "cpp: drivers/a.c:2: unterminated conditional")

	hit := cx.Probe(src, "drivers/a.c")
	if !hit.Hit || !hit.Failed || hit.ErrText == "" {
		t.Fatalf("failure serve: %+v", hit)
	}
	other := cx.Probe(src, "drivers/same.c")
	if other.Hit {
		t.Fatalf("failure must not serve cross-path")
	}
	other.Cancel()
}

func TestStageORoundTrip(t *testing.T) {
	src := testSource()
	c := New()
	cx := c.Context(StageO, "x86", 11, 22)
	obj := cc.Object{Lines: 120, Functions: 3, Defined: []string{"f", "g"}}
	p := cx.Probe(src, "drivers/a.c")
	p.StoreO(testInputs, testMissing, obj)

	hit := cx.Probe(src, "drivers/a.c")
	if !hit.Hit || hit.Failed {
		t.Fatalf("StageO serve: %+v", hit)
	}
	if hit.Object.Lines != obj.Lines || hit.Object.Functions != obj.Functions ||
		len(hit.Object.Defined) != 2 {
		t.Fatalf("object payload mismatch: %+v", hit.Object)
	}
}

func TestCancelCountsMissStoresNothing(t *testing.T) {
	src := testSource()
	c := New()
	cx := c.Context(StageI, "x86", 11, 22)
	p := cx.Probe(src, "drivers/a.c")
	p.Cancel()
	st := c.Stats()
	if st.MakeI.Misses != 1 || st.Entries != 0 {
		t.Fatalf("after cancel: %+v", st)
	}
}

func TestUnreadableRootIsMiss(t *testing.T) {
	src := testSource()
	c := New()
	cx := c.Context(StageI, "x86", 11, 22)
	p := cx.Probe(src, "drivers/gone.c")
	if p.Hit {
		t.Fatalf("unreadable root cannot hit")
	}
	p.StoreI(nil, nil, "x", testWork) // must be a no-op
	if st := c.Stats(); st.Entries != 0 || st.MakeI.Misses != 1 {
		t.Fatalf("after unreadable root: %+v", st)
	}
}

func TestSavedLedger(t *testing.T) {
	c := New()
	c.AddSaved(StageI, 3*time.Second)
	c.AddSaved(StageO, time.Second)
	st := c.Stats()
	if st.SavedVirtual != 4*time.Second {
		t.Fatalf("SavedVirtual = %v", st.SavedVirtual)
	}
	if st.SavedMakeI != 3*time.Second || st.SavedMakeO != time.Second {
		t.Fatalf("per-stage saved = %v / %v, want 3s / 1s", st.SavedMakeI, st.SavedMakeO)
	}
	c.NoteDedup(StageI)
	if got := c.Stats().MakeI.Deduped; got != 1 {
		t.Fatalf("Deduped = %d", got)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	src := testSource()
	dir := t.TempDir()
	c := New()
	cx := storeOne(t, c, src)
	ox := c.Context(StageO, "x86", 11, 22)
	p := ox.Probe(src, "drivers/a.c")
	p.StoreO(testInputs, testMissing, cc.Object{Lines: 10, Functions: 1})
	if err := c.Save(dir, 0); err != nil {
		t.Fatalf("Save: %v", err)
	}

	warm := New()
	warm.Load(dir)
	st := warm.Stats()
	if st.LoadedEntries != 2 || st.Entries != 2 {
		t.Fatalf("loaded %d/%d entries", st.LoadedEntries, st.Entries)
	}
	wcx := warm.Context(StageI, "x86", 11, 22)
	if p := wcx.Probe(src, "drivers/a.c"); !p.Hit || p.Text != rootText {
		t.Fatalf("warm StageI probe: %+v", p)
	}
	_ = cx
}

func TestLoadRejectsVersionMismatch(t *testing.T) {
	src := testSource()
	dir := t.TempDir()
	c := New()
	storeOne(t, c, src)
	if err := c.Save(dir, 0); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(dir, persistFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var df diskFile
	if err := json.Unmarshal(raw, &df); err != nil {
		t.Fatal(err)
	}
	df.Version = persistVersion + 1
	raw2, _ := json.Marshal(&df)
	if err := os.WriteFile(path, raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	warm := New()
	warm.Load(dir)
	if st := warm.Stats(); st.LoadedEntries != 0 || st.Entries != 0 {
		t.Fatalf("version-mismatched file must load cold, got %+v", st)
	}
}

func TestLoadDropsCorruptEntries(t *testing.T) {
	src := testSource()
	dir := t.TempDir()
	c := New()
	storeOne(t, c, src)
	if err := c.Save(dir, 0); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(dir, persistFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var df diskFile
	if err := json.Unmarshal(raw, &df); err != nil {
		t.Fatal(err)
	}
	df.Entries[0].Text += "tampered"
	raw2, _ := json.Marshal(&df)
	if err := os.WriteFile(path, raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	warm := New()
	warm.Load(dir) // must not error, must drop the tampered entry
	if st := warm.Stats(); st.LoadedEntries != 0 || st.Entries != 0 {
		t.Fatalf("tampered entry must be dropped, got %+v", st)
	}

	// Total garbage in place of the file is also just a cold start.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	warm2 := New()
	warm2.Load(dir)
	if st := warm2.Stats(); st.Entries != 0 {
		t.Fatalf("garbage file must load cold, got %+v", st)
	}
}

// Save keeps the most-recently-used entries within the byte bound.
func TestSaveLRUBound(t *testing.T) {
	src := mapSource{}
	c := New()
	cx := c.Context(StageI, "x86", 1, 2)
	for i := 0; i < 8; i++ {
		path := fmt.Sprintf("drivers/f%d.c", i)
		src[path] = fmt.Sprintf("int f%d(void){return %d;}\n", i, i)
		p := cx.Probe(src, path)
		p.StoreI([]string{path}, nil, fmt.Sprintf("# 1 %q\npayload %d\n", path, i), testWork)
	}
	// Touch entry 0 so it is the most recent.
	if p := cx.Probe(src, "drivers/f0.c"); !p.Hit {
		t.Fatalf("expected hit on f0")
	}

	dir := t.TempDir()
	// Budget for roughly two entries (each ~100 bytes of accounted size).
	if err := c.Save(dir, 250); err != nil {
		t.Fatalf("Save: %v", err)
	}
	warm := New()
	warm.Load(dir)
	st := warm.Stats()
	if st.Entries == 0 || st.Entries >= 8 {
		t.Fatalf("LRU bound kept %d entries, want a strict MRU subset", st.Entries)
	}
	// The most recently used entry must have survived.
	if p := warm.Context(StageI, "x86", 1, 2).Probe(src, "drivers/f0.c"); !p.Hit {
		t.Fatalf("MRU entry evicted by LRU bound")
	}
}

// Eight goroutines hammer one key: the singleflight election must compute
// exactly once, and the counters must come out worker-count-invariant.
// Run under -race in `make check`.
func TestConcurrentSingleflight(t *testing.T) {
	src := testSource()
	c := New()
	cx := c.Context(StageI, "x86", 11, 22)

	const n = 8
	var computes int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(n)
	for g := 0; g < n; g++ {
		go func() {
			defer wg.Done()
			p := cx.Probe(src, "drivers/a.c")
			if p.Hit {
				return
			}
			mu.Lock()
			computes++
			mu.Unlock()
			p.StoreI(testInputs, testMissing, rootText, testWork)
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times, want exactly once", computes)
	}
	st := c.Stats()
	if st.MakeI.Misses != 1 || st.MakeI.Hits != n-1 {
		t.Fatalf("counters not invariant: %+v", st.MakeI)
	}

	// Different keys in parallel must not serialize or collide.
	wg.Add(n)
	for g := 0; g < n; g++ {
		g := g
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("drivers/p%d.c", g)
			mu.Lock()
			src[path] = fmt.Sprintf("int p%d;\n", g)
			mu.Unlock()
			ms := mapSource{path: fmt.Sprintf("int p%d;\n", g)}
			p := cx.Probe(ms, path)
			if !p.Hit {
				p.StoreI([]string{path}, nil, "text", testWork)
			}
		}()
	}
	wg.Wait()
}

func TestOptionsFingerprint(t *testing.T) {
	base := func() map[string]string { return map[string]string{"A": "1", "B": "2"} }
	a := OptionsFingerprint(optsWith([]string{"include"}, base(), 10))
	if b := OptionsFingerprint(optsWith([]string{"include"}, base(), 10)); a != b {
		t.Fatalf("fingerprint not deterministic")
	}
	if b := OptionsFingerprint(optsWith([]string{"include", "arch"}, base(), 10)); a == b {
		t.Fatalf("include dirs must affect fingerprint")
	}
	d := base()
	d["MODULE"] = "1"
	if b := OptionsFingerprint(optsWith([]string{"include"}, d, 10)); a == b {
		t.Fatalf("defines must affect fingerprint")
	}
	if b := OptionsFingerprint(optsWith([]string{"include"}, base(), 11)); a == b {
		t.Fatalf("max depth must affect fingerprint")
	}
	// The memoized digest of a shared Predefined set fingerprints like the
	// plain Defines map it was built from.
	o := optsWith([]string{"include"}, nil, 10)
	o.Predefined = cpp.NewPredefined(base())
	if b := OptionsFingerprint(o); a != b {
		t.Fatalf("Predefined and Defines forms of one define set fingerprint differently")
	}
	o.Predefined = cpp.NewPredefined(d)
	if b := OptionsFingerprint(o); a == b {
		t.Fatalf("Predefined defines must affect fingerprint")
	}
}

// Persistence failures stay silent in behavior (cold start) but must be
// visible in the metrics registry, so an operator can tell "cold by
// design" from "disk is eating the cache".
func TestPersistFailureCounters(t *testing.T) {
	src := testSource()
	dir := t.TempDir()
	c := New()
	storeOne(t, c, src)
	if err := c.Save(dir, 0); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(dir, persistFile)

	// A missing file is cold by design: no failure counted.
	reg := metrics.NewRegistry()
	cold := NewIn(reg)
	cold.Load(t.TempDir())
	if got := reg.Counter("ccache_load_failures").Value(); got != 0 {
		t.Fatalf("missing file counted %d load failures, want 0", got)
	}

	// Garbage in place of the file: one load failure.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg = metrics.NewRegistry()
	NewIn(reg).Load(dir)
	if got := reg.Counter("ccache_load_failures").Value(); got != 1 {
		t.Fatalf("garbage file counted %d load failures, want 1", got)
	}

	// Tampered entries: one load failure per dropped entry.
	if err := c.Save(dir, 0); err != nil {
		t.Fatalf("Save: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var df diskFile
	if err := json.Unmarshal(raw, &df); err != nil {
		t.Fatal(err)
	}
	df.Entries[0].Text += "tampered"
	raw2, _ := json.Marshal(&df)
	if err := os.WriteFile(path, raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	reg = metrics.NewRegistry()
	warm := NewIn(reg)
	warm.Load(dir)
	if got := reg.Counter("ccache_load_failures").Value(); got != 1 {
		t.Fatalf("tampered entry counted %d load failures, want 1", got)
	}
	if st := warm.Stats(); st.Entries != 0 {
		t.Fatalf("tampered entry must still be dropped, got %+v", st)
	}

	// A failed save counts too (target dir is a file, MkdirAll fails).
	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	reg = metrics.NewRegistry()
	sc := NewIn(reg)
	storeOne(t, sc, src)
	if err := sc.Save(filepath.Join(blocked, "cache"), 0); err == nil {
		t.Fatal("Save into a file path must error")
	}
	if got := reg.Counter("ccache_save_failures").Value(); got != 1 {
		t.Fatalf("failed save counted %d save failures, want 1", got)
	}
}

// TestDependents: the reverse dependency view must name exactly the root
// TUs whose manifests recorded a queried path — read or probed-absent —
// without listing a root as its own dependent.
func TestDependents(t *testing.T) {
	src := testSource()
	c := New()
	cx := storeOne(t, c, src) // drivers/a.c closure: sub.h, deep.h (+ absent drivers/sub.h)

	// A second root with a disjoint closure.
	p := cx.Probe(src, "drivers/other.c")
	if p.Hit {
		t.Fatal("unexpected hit")
	}
	p.StoreI([]string{"drivers/other.c"}, nil, "other text", testWork)

	deps := c.Dependents([]string{
		"include/deep.h", // transitive read dep of a.c
		"drivers/sub.h",  // probed-absent dep of a.c
		"drivers/a.c",    // a root itself: never its own dependent
		"include/nope.h", // mentioned by no manifest
	})
	if got := deps["include/deep.h"]; len(got) != 1 || got[0] != "drivers/a.c" {
		t.Errorf("Dependents(deep.h) = %v, want [drivers/a.c]", got)
	}
	if got := deps["drivers/sub.h"]; len(got) != 1 || got[0] != "drivers/a.c" {
		t.Errorf("Dependents(absent probe path) = %v, want [drivers/a.c]", got)
	}
	if got, ok := deps["drivers/a.c"]; ok {
		t.Errorf("root listed as its own dependent: %v", got)
	}
	if got, ok := deps["include/nope.h"]; ok {
		t.Errorf("unrelated path has dependents: %v", got)
	}
}
