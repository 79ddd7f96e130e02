package vcs_test

import (
	"path"
	"strings"
	"sync"
	"testing"

	"jmake/internal/commitgen"
	"jmake/internal/fstree"
	"jmake/internal/kernelgen"
	"jmake/internal/vcs"
)

// benchWindow is the generated workspace BenchmarkCheckoutWindow walks:
// built once per process, so -count repeats time only the walk.
var benchWindow = sync.OnceValues(func() (*vcs.Repo, []string) {
	tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: 1, Scale: 1.0})
	if err != nil {
		panic(err)
	}
	hist, err := commitgen.Build(tree, man, commitgen.Params{Seed: 2, Scale: 0.3})
	if err != nil {
		panic(err)
	}
	ids, err := hist.Repo.Between("v4.3", "v4.4", vcs.LogOptions{NoMerges: true, OnlyModify: true})
	if err != nil {
		panic(err)
	}
	return hist.Repo, ids
})

// BenchmarkCheckoutWindow times what a check pays for its snapshot before
// any build runs, over every window commit of a generated workspace (tree
// scale 1.0, commit scale 0.3): check the commit out, clone the checkout
// as the checker clones it for its mutations, and run one header hunt on
// the clone, for the includes of the commit's first changed file as if it
// were a header. One op is the whole window; ns/commit divides it by the
// window's length. Run it with `make bench-checkout`.
func BenchmarkCheckoutWindow(b *testing.B) {
	repo, ids := benchWindow()
	needles := make([][]string, len(ids))
	for i, id := range ids {
		c, err := repo.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		p := c.Changes[0].Path
		needles[i] = []string{"<" + strings.TrimPrefix(p, "include/") + ">", "\"" + path.Base(p) + "\""}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var clone *fstree.Tree
	for n := 0; n < b.N; n++ {
		for i, id := range ids {
			tree, err := repo.CheckoutTree(id)
			if err != nil {
				b.Fatal(err)
			}
			clone = tree.Clone()
			clone.Containing(".c", needles[i])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/commit")
	if clone.Len() == 0 {
		b.Fatal("empty checkout")
	}
}
