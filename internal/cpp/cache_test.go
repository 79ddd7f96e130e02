package cpp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"jmake/internal/fstree"
)

// scanOf scans content under its fstree.Hash key, as Preprocess does over
// a plain Source.
func scanOf(c *TokenCache, path, content string) *scanned {
	return c.scan(path, content, fstree.Hash(content))
}

// constHashSource is a Source that gives every file the same hash, as if
// every content collided.
type constHashSource map[string]string

func (m constHashSource) ReadHashed(p string) (string, uint64, bool) {
	c, ok := m[p]
	return c, 42, ok
}

// Preprocess keys the token cache by the source's hash, not by one of its
// own, and a hash shared by different contents still never serves the
// wrong tokens.
func TestTokenCacheKeysBySourceHash(t *testing.T) {
	src := constHashSource{
		"a.c": "#include \"b.h\"\n#include \"c.h\"\nint a;\n",
		"b.h": "int b;\n",
		"c.h": "int c;\n",
	}
	c := NewTokenCache()
	for i := 0; i < 2; i++ {
		res, err := Preprocess(src, "a.c", Options{Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"int a;", "int b;", "int c;"} {
			if !strings.Contains(res.Output, want) {
				t.Fatalf("pass %d: output lacks %q:\n%s", i, want, res.Output)
			}
		}
	}
	if got := len(c.shardFor(42).entries[42]); got != 3 {
		t.Fatalf("entries under the source's hash = %d, want 3", got)
	}
	if hits, misses := c.Stats(); hits != 3 || misses != 3 {
		t.Fatalf("stats = %d hits / %d misses, want 3/3", hits, misses)
	}
}

// Two different paths carrying identical content must share one cache
// entry: one miss for the first scan, hits for every later one. This is
// the "keyed by content identity" contract — the old key mixed the path
// in, so identical headers reached via different paths never deduped.
func TestTokenCacheDedupesAcrossPaths(t *testing.T) {
	c := NewTokenCache()
	const content = "#define A 1\nint a = A;\n"

	s1 := scanOf(c, "include/linux/a.h", content)
	s2 := scanOf(c, "arch/x86/include/a_copy.h", content)

	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats after two same-content scans = %d hits / %d misses, want 1/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 shared entry", c.Len())
	}
	// Same entry, not merely equal: the record itself must be shared.
	if s1 != s2 {
		t.Fatalf("same-content scans returned distinct records")
	}

	// Different content still misses.
	scanOf(c, "include/linux/a.h", content+"\n// trailing\n")
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats after distinct-content scan = %d hits / %d misses, want 1/2", hits, misses)
	}
}

// A bucket holding an entry for *different* content (as a real FNV-64
// collision would produce) must never serve that entry's tokens: lookups
// verify content, so a collision only widens the chain. FNV-64 preimages
// are impractical to craft, so the test plants the colliding-bucket state
// directly — exactly the state a collision would leave behind.
func TestTokenCacheCollisionNeverServesWrongTokens(t *testing.T) {
	c := NewTokenCache()
	want := "int real_content;\n"
	imposterContent := "int imposter;\n"
	key := fstree.Hash(want)

	// Plant an imposter entry in want's bucket, scanned from different
	// content, as if fstree.Hash(imposterContent) had collided with key.
	imposter := &cachedFile{content: imposterContent, path: "imposter.h"}
	imposter.once.Do(func() { imposter.s = scan(imposterContent) })
	sh := c.shardFor(key)
	sh.entries[key] = append(sh.entries[key], imposter)

	s := scanOf(c, "real.h", want)
	if len(s.lines) != 1 || s.lineText(&s.lines[0]) != "int real_content;" {
		t.Fatalf("scan served wrong logical lines: %q", s.text)
	}
	if toks := s.lineToks(&s.lines[0]); len(toks) != 3 || s.token(toks[1]).Text != "real_content" {
		t.Fatalf("scan served wrong token records: %+v", toks)
	}
	// The real content was a miss (chain scan found no content match) and
	// both entries now chain under one bucket.
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 0/1", hits, misses)
	}
	if got := len(sh.entries[key]); got != 2 {
		t.Fatalf("bucket chain length = %d, want 2 (imposter + real)", got)
	}

	// Re-scanning the real content hits its own entry, not the imposter's.
	if s2 := scanOf(c, "real.h", want); s2 != s {
		t.Fatalf("re-scan served another record: %q", s2.text)
	}
}

// Concurrent first scans of one content elect exactly one lexer: misses
// stay equal to the number of distinct contents at any concurrency.
func TestTokenCacheConcurrentElection(t *testing.T) {
	c := NewTokenCache()
	const goroutines = 32
	const distinct = 7
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < distinct; k++ {
				content := fmt.Sprintf("int v%d = %d;\n", k, k)
				s := scanOf(c, fmt.Sprintf("dir%d/f%d.h", g, k), content)
				if len(s.lines) != 1 {
					t.Errorf("scan(%d) returned %d lines, want 1", k, len(s.lines))
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if misses != distinct {
		t.Fatalf("misses = %d, want %d (one per distinct content)", misses, distinct)
	}
	if hits != goroutines*distinct-distinct {
		t.Fatalf("hits = %d, want %d", hits, goroutines*distinct-distinct)
	}
}
