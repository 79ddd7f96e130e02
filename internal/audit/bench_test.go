package audit

import (
	"testing"

	"jmake/internal/kernelgen"
)

// BenchmarkAuditRun times one whole-tree audit of the perfbench audit
// workload's shape: a generated tree at scale 0.25 with 8 injected
// mismatches, audited against its baseline on one worker. Run it with
// `make bench-audit`.
func BenchmarkAuditRun(b *testing.B) {
	tree, man, err := kernelgen.Generate(kernelgen.Params{Seed: 1, Scale: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := kernelgen.InjectMismatches(tree, 1, 8); err != nil {
		b.Fatal(err)
	}
	ignore := make(map[string]bool)
	for _, s := range man.AuditBaseline {
		ignore[s] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Params{Tree: tree, Ignore: ignore, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
