package kbuild

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strings"
	"testing"

	"jmake/internal/cc"
	"jmake/internal/cpp"
	"jmake/internal/fstree"
	"jmake/internal/kconfig"
	"jmake/internal/kernelgen"
	"jmake/internal/vclock"
)

// corpusDigest pins every .i byte and every cc verdict over a generated
// corpus: any change to the preprocessor or the compiler front end that
// moves one output byte, one counter or one diagnostic moves it. Record
// a new value only with a change meant to alter that output.
const corpusDigest = "570631ed5090604e1e9960a870169342d7050bf5aa8fc533e6e88de347b863ff"

// corpusDigestArches are the working architectures the digest covers;
// four keep the test at a few seconds (every arch takes ten times longer).
var corpusDigestArches = []string{"x86_64", "arm", "mips", "powerpc"}

// TestCorpusPreprocessDigest preprocesses and compiles every .c file of a
// kernelgen tree under allyesconfig, with MODULE off and on, once through
// one shared TokenCache and once without a cache, and hashes each run's
// Result fields, error text and cc outcome into one SHA-256.
func TestCorpusPreprocessDigest(t *testing.T) {
	tr, _, err := kernelgen.Generate(kernelgen.Params{Seed: 7, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, p := range tr.Paths() {
		if strings.HasSuffix(p, ".c") {
			files = append(files, p)
		}
	}
	meta, err := LoadMeta(tr)
	if err != nil {
		t.Fatal(err)
	}
	arches := DiscoverArches(tr, meta)
	h := sha256.New()
	shared := cpp.NewTokenCache()
	for _, cache := range []*cpp.TokenCache{shared, nil} {
		for _, name := range corpusDigestArches {
			arch, ok := arches[name]
			if !ok || arch.Broken {
				t.Fatalf("arch %s is not a working arch of the corpus", name)
			}
			kt, err := kconfig.Parse(TreeSource{T: tr}, arch.KconfigRoot)
			if err != nil {
				t.Fatalf("%s Kconfig: %v", name, err)
			}
			b, err := NewBuilder(tr, arch, kt.AllYesConfig(), meta, vclock.DefaultModel(1))
			if err != nil {
				t.Fatal(err)
			}
			b.Cache = cache
			for _, mod := range []bool{false, true} {
				for _, f := range files {
					hashUnit(h, tr, f, b.cppOptions(mod))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusDigest {
		t.Errorf("corpus digest = %s, want %s", got, corpusDigest)
	}
}

// hashUnit writes one preprocess+compile run into h, each field
// length-prefixed so that no two different runs hash the same bytes.
func hashUnit(h hash.Hash, tr *fstree.Tree, file string, opts cpp.Options) {
	field := func(s string) { fmt.Fprintf(h, "%d:%s", len(s), s) }
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	field(file)
	res, err := cpp.Preprocess(TreeSource{T: tr}, file, opts)
	field(res.Output)
	fmt.Fprintf(h, "%d,%d,", res.InputLines, res.Includes)
	for _, list := range [][]string{res.Warnings, res.Inputs, res.Missing} {
		fmt.Fprintf(h, "%d[", len(list))
		for _, s := range list {
			field(s)
		}
	}
	field(errText(err))
	if err != nil {
		return
	}
	obj, cerr := cc.Compile(res.Output)
	fmt.Fprintf(h, "%d,%d,%d[", obj.Lines, obj.Functions, len(obj.Defined))
	for _, s := range obj.Defined {
		field(s)
	}
	field(errText(cerr))
	_, _ = io.WriteString(h, "\n")
}
