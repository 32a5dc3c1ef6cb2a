package grid

import (
	"testing"

	"xbc/internal/service/jobspec"
)

// BenchmarkGridExpandWarmSweep canonicalizes one sweep of the warm-sweep
// shape: 5 frontends x 3 workloads (one per suite) x 3 budgets x 2
// fidelities = 90 cells. Recorded by `make bench-key` into
// BENCH_PR14.json, which gates its allocs/op and B/op.
func BenchmarkGridExpandWarmSweep(b *testing.B) {
	g := Grid{
		Frontends:  jobspec.Kinds(),
		Workloads:  []string{"go", "freelnc", "descent"},
		Budgets:    []int{8 * 1024, 16 * 1024, 64 * 1024},
		Fidelities: []string{jobspec.FidelityFull, jobspec.FidelitySampled},
		Uops:       200_000,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells, err := Expand(g)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 90 {
			b.Fatalf("expanded %d cells, want 90", len(cells))
		}
	}
}
