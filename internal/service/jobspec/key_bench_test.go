package jobspec

import (
	"fmt"
	"testing"

	"xbc/internal/experiments"
	"xbc/internal/frontend"
	"xbc/internal/snapshot"
)

// Job-identity and warm-state-size benchmarks, recorded by `make
// bench-key` into BENCH_PR14.json. Their allocs/op, B/op and B/blob are
// deterministic, so the compare gate holds them to the recorded levels.

// BenchmarkSpecKeyNamed keys a spec that names a paper workload: the
// per-request canonicalization cost of the serving path (resolve the name
// against the built-once workload table, normalize, validate, hash).
func BenchmarkSpecKeyNamed(b *testing.B) {
	spec := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 200_000, Budget: 16 * 1024, Fidelity: FidelitySampled}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Key(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotBytes seals the warm state of a gcc run at its
// capture point, per frontend, and reports the sealed blob's size as
// B/blob: the memory one snapshot-manager entry holds.
func BenchmarkSnapshotBytes(b *testing.B) {
	const uops = 200_000
	for _, c := range []struct {
		kind   string
		budget int
	}{
		{KindIC, 0},
		{KindDecoded, DefaultBudget},
		{KindTC, DefaultBudget},
		{KindBBTC, DefaultBudget},
		{KindXBC, 8 * 1024},
		{KindXBC, 64 * 1024},
	} {
		name := c.kind
		if c.budget > 0 {
			name = fmt.Sprintf("%s_%dK", c.kind, c.budget/1024)
		}
		b.Run(name, func(b *testing.B) {
			spec := Spec{Frontend: c.kind, Workload: "gcc", Uops: uops, Budget: c.budget}.Normalize()
			stream, err := experiments.StreamFor(*spec.Program, spec.Uops)
			if err != nil {
				b.Fatal(err)
			}
			fe, err := spec.NewFrontend()
			if err != nil {
				b.Fatal(err)
			}
			recs := stream.Records()
			ses := fe.(frontend.SessionFrontend).NewSession()
			ses.StepTo(recs, recIndexAtUops(recs, SnapshotWarmupUops(spec.Uops)))
			b.ReportAllocs()
			b.ResetTimer()
			var blob []byte
			for i := 0; i < b.N; i++ {
				var w snapshot.Writer
				ses.SaveState(&w)
				blob = snapshot.Seal(w.Bytes())
			}
			b.ReportMetric(float64(len(blob)), "B/blob")
		})
	}
}
