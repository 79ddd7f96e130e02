package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/kernelgen"
)

// auditDigest pins every audit report byte over a generated corpus: any
// change to the Kconfig parser, the Kbuild walk, the presence analysis or
// the checks that moves one finding, count or detail moves it. Record a
// new value only with a change meant to alter audit output.
const auditDigest = "c8a22d24c2d02b81f4cb49c816134d9419a08bc08a169093519b3ae358872ad5"

// corpus is one audited tree and its suppression set.
type corpus struct {
	name   string
	tree   *fstree.Tree
	ignore map[string]bool
}

// generatedCorpora are kernelgen trees at seeds 1–3 and scales 0.12 and
// 0.25, each with 12 injected mismatches, audited without and with the
// tree's audit baseline.
func generatedCorpora(t *testing.T) []corpus {
	t.Helper()
	var out []corpus
	for seed := int64(1); seed <= 3; seed++ {
		for _, scale := range []float64{0.12, 0.25} {
			tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: seed, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := kernelgen.InjectMismatches(tree, seed, 12); err != nil {
				t.Fatal(err)
			}
			base := make(map[string]bool)
			for _, s := range man.AuditBaseline {
				base[s] = true
			}
			name := fmt.Sprintf("seed%d-scale%.2f", seed, scale)
			out = append(out, corpus{name: name, tree: tree}, corpus{name: name + "-baseline", tree: tree, ignore: base})
		}
	}
	return out
}

// examplesAudit loads the examples/audit/src fixture tree.
func examplesAudit(t *testing.T) corpus {
	t.Helper()
	tree, err := fstree.LoadDir(filepath.Join("..", "..", "examples", "audit", "src"))
	if err != nil {
		t.Fatalf("corpus missing: %v", err)
	}
	return corpus{name: "examples/audit", tree: tree}
}

// TestAuditCorpusDigest audits the generated corpora and
// examples/audit/src at 1 and 4 workers, and hashes each run's JSON
// report, length-prefixed, into one SHA-256.
func TestAuditCorpusDigest(t *testing.T) {
	h := sha256.New()
	for _, c := range append(generatedCorpora(t), examplesAudit(t)) {
		for _, workers := range []int{1, 4} {
			rep, err := Run(Params{Tree: c.tree, Ignore: c.ignore, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			b, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%d:%s%d:%s", len(c.name), c.name, len(b), b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != auditDigest {
		t.Errorf("audit corpus digest = %s, want %s", got, auditDigest)
	}
}

// TestSharedParserMatchesFreshParse checks that every architecture's tree
// the audit links through its one Parser deeply equals a fresh
// kconfig.Parse of the same root: names in order, files, every symbol
// field with its DependsOn structure, choices and select targets.
func TestSharedParserMatchesFreshParse(t *testing.T) {
	corpora := []corpus{{name: "fixture", tree: fixtureTree()}, {name: "multi-arch", tree: multiArchTree()}, examplesAudit(t)}
	for _, c := range generatedCorpora(t) {
		if c.ignore == nil {
			corpora = append(corpora, c)
		}
	}
	for _, c := range corpora {
		arches, err := discoverArches(Params{Tree: c.tree})
		if err != nil {
			t.Fatal(err)
		}
		for _, ac := range arches {
			fresh, err := kconfig.Parse(kbuild.TreeSource{T: c.tree}, ac.root)
			if err != nil {
				t.Fatal(err)
			}
			if d := kconfigDiff(ac.kt, fresh); d != "" {
				t.Errorf("%s %s: linked tree differs from a fresh parse: %s", c.name, ac.name, d)
			}
		}
	}
}

// kconfigDiff describes the first difference between two Kconfig trees,
// "" when they are deeply equal.
func kconfigDiff(got, want *kconfig.Tree) string {
	switch {
	case !reflect.DeepEqual(got.Names(), want.Names()):
		return fmt.Sprintf("names %v, want %v", got.Names(), want.Names())
	case !reflect.DeepEqual(got.Files(), want.Files()):
		return fmt.Sprintf("files %v, want %v", got.Files(), want.Files())
	case !reflect.DeepEqual(got.SelectTargets(), want.SelectTargets()):
		return "select targets differ"
	}
	for _, name := range want.Names() {
		if g, w := got.Symbol(name), want.Symbol(name); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("symbol %s = %+v, want %+v", name, *g, *w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return "choices differ"
	}
	return ""
}
