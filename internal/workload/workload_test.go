package workload

import (
	"sync"
	"testing"

	"xbc/internal/isa"
	"xbc/internal/program"
	"xbc/internal/trace"
)

func TestSuiteComposition(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("workloads = %d, want 21", len(all))
	}
	counts := map[Suite]int{}
	for _, w := range all {
		counts[w.Suite]++
	}
	if counts[SPECint] != 8 || counts[SYSmark] != 8 || counts[Games] != 5 {
		t.Fatalf("suite sizes: %v (paper: 8 SPECint, 8 SYSmark, 5 games)", counts)
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate workload name %q", n)
		}
		seen[n] = true
	}
	if len(seen) != 21 {
		t.Fatalf("names = %d", len(seen))
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("gcc")
	if !ok || w.Name != "gcc" || w.Suite != SPECint {
		t.Fatalf("ByName(gcc) = %+v, %v", w, ok)
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("phantom workload")
	}
}

func TestBySuite(t *testing.T) {
	if got := len(BySuite(Games)); got != 5 {
		t.Fatalf("games = %d", got)
	}
}

func TestSuiteString(t *testing.T) {
	if SPECint.String() != "SPECint95" || SYSmark.String() != "SYSmark32" || Games.String() != "Games" {
		t.Fatal("suite names wrong")
	}
	if Suite(9).String() != "suite(9)" {
		t.Fatal("unknown suite string")
	}
}

func TestAllSpecsValidateAndBuild(t *testing.T) {
	for _, w := range All() {
		if err := w.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if _, err := program.Build(w.Spec); err != nil {
			t.Errorf("%s: build: %v", w.Name, err)
		}
	}
}

func TestSpecsAreDistinct(t *testing.T) {
	// Per-workload jitter must make the programs differ.
	seen := map[int]string{}
	for _, w := range All() {
		p := program.MustBuild(w.Spec)
		if prev, dup := seen[p.StaticUops()]; dup {
			t.Errorf("workloads %s and %s have identical static size %d", prev, w.Name, p.StaticUops())
		}
		seen[p.StaticUops()] = w.Name
	}
}

func TestSuiteFootprintOrdering(t *testing.T) {
	// SYSmark programs must have the largest code footprints (OS +
	// application), SPECint the smallest; this drives Figure 9's capacity
	// pressure.
	meanStatic := func(s Suite) float64 {
		var sum float64
		ws := BySuite(s)
		for _, w := range ws {
			sum += float64(program.MustBuild(w.Spec).StaticUops())
		}
		return sum / float64(len(ws))
	}
	spec, sys, games := meanStatic(SPECint), meanStatic(SYSmark), meanStatic(Games)
	if !(spec < games && games < sys) {
		t.Fatalf("footprint ordering violated: spec=%.0f games=%.0f sys=%.0f", spec, games, sys)
	}
}

func TestFigure1Calibration(t *testing.T) {
	// The generator must land near the paper's Figure 1 means: basic
	// block 7.7, XB 8.0, XB+promotion 10.0, dual XB 12.7 (+-25%
	// tolerance, averaged over a sample of workloads).
	if testing.Short() {
		t.Skip("calibration check is slow")
	}
	sample := []string{"go", "word", "quake", "li", "paradox"}
	var bb, xb, xp, dx float64
	for _, name := range sample {
		w, _ := ByName(name)
		s, err := trace.Generate(w.Spec, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		bias := trace.MeasureBias(s)
		bb += trace.SegmentLengths(s, trace.BasicBlock, nil).Mean()
		xb += trace.SegmentLengths(s, trace.XB, nil).Mean()
		xp += trace.SegmentLengths(s, trace.XBPromoted, bias).Mean()
		dx += trace.SegmentLengths(s, trace.DualXB, nil).Mean()
	}
	n := float64(len(sample))
	bb, xb, xp, dx = bb/n, xb/n, xp/n, dx/n
	check := func(name string, got, want float64) {
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("%s mean = %.2f, paper %.2f (outside +-25%%)", name, got, want)
		}
	}
	check("basic block", bb, 7.7)
	check("XB", xb, 8.0)
	check("XB+promotion", xp, 10.0)
	check("dual XB", dx, 12.7)
	if !(bb <= xb && xb <= xp) {
		t.Errorf("ordering violated: %.2f %.2f %.2f", bb, xb, xp)
	}
}

func TestMicroWorkloads(t *testing.T) {
	ms := Micro()
	if len(ms) != 5 {
		t.Fatalf("micro workloads = %d", len(ms))
	}
	seen := map[string]bool{}
	for _, w := range ms {
		if seen[w.Name] {
			t.Fatalf("duplicate micro name %q", w.Name)
		}
		seen[w.Name] = true
		if err := w.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if _, err := program.Build(w.Spec); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if _, ok := MicroByName("loopnest"); !ok {
		t.Fatal("MicroByName failed")
	}
	if _, ok := MicroByName("nope"); ok {
		t.Fatal("phantom micro workload")
	}
}

func TestMicroWorkloadCharacters(t *testing.T) {
	// Each micro workload must actually exhibit its advertised character.
	get := func(name string) trace.Summary {
		w, _ := MicroByName(name)
		s, err := trace.Generate(w.Spec, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		return trace.Summarize(s)
	}
	if sum := get("straightline"); sum.XBLen.Mean() < 9 {
		t.Errorf("straightline mean XB %.2f too short", sum.XBLen.Mean())
	}
	if sum := get("callheavy"); sum.ClassMix(isa.Call)+sum.ClassMix(isa.IndirectCall) < 0.05 {
		t.Errorf("callheavy call mix %.3f too low",
			sum.ClassMix(isa.Call)+sum.ClassMix(isa.IndirectCall))
	}
	if sum := get("switchheavy"); sum.ClassMix(isa.IndirectJump) < 0.02 {
		t.Errorf("switchheavy ijmp mix %.3f too low", sum.ClassMix(isa.IndirectJump))
	}
}

// The table is built once and shared; what callers get back must be
// theirs to mutate without reaching the table.
func TestTableCopiesAreIsolated(t *testing.T) {
	gcc, _ := ByName("gcc")
	loop, _ := MicroByName("loopnest")

	all := All()
	all[0].Name = "clobbered"
	all[2].Spec.Functions = -1
	micro := Micro()
	micro[1].Spec.LoopFrac = 99
	w, _ := ByName("gcc")
	w.Spec.Seed = 7
	w.Spec.UopWeights[0] = 0
	m, _ := MicroByName("loopnest")
	m.Spec.Interleave = 1000

	if got, _ := ByName("gcc"); got != gcc {
		t.Fatalf("ByName(gcc) changed after caller mutation: %+v", got)
	}
	if got, _ := MicroByName("loopnest"); got != loop {
		t.Fatalf("MicroByName(loopnest) changed after caller mutation: %+v", got)
	}
	if n := Names(); n[0] != "go" || len(n) != 21 {
		t.Fatalf("Names changed after caller mutation: %v", n)
	}
	if fresh := All(); fresh[2] != gcc {
		t.Fatalf("All()[2] = %+v, want gcc", fresh[2])
	}
}

// The shared table must be exactly what a fresh build produces, field for
// field, so building once changes no spec (and so no golden metric).
func TestTableEqualsFreshBuild(t *testing.T) {
	fresh := buildAll()
	all := All()
	if len(all) != len(fresh) {
		t.Fatalf("table has %d workloads, fresh build %d", len(all), len(fresh))
	}
	for i := range fresh {
		if all[i] != fresh[i] {
			t.Errorf("workload %d: table %+v, fresh %+v", i, all[i], fresh[i])
		}
		if w, ok := ByName(fresh[i].Name); !ok || w != fresh[i] {
			t.Errorf("ByName(%s) = %+v, %v; fresh %+v", fresh[i].Name, w, ok, fresh[i])
		}
	}
	freshMicro := buildMicro()
	micro := Micro()
	if len(micro) != len(freshMicro) {
		t.Fatalf("micro table has %d workloads, want %d", len(micro), len(freshMicro))
	}
	for i := range freshMicro {
		if micro[i] != freshMicro[i] {
			t.Errorf("micro %d: table %+v, fresh %+v", i, micro[i], freshMicro[i])
		}
	}
}

// Concurrent first use and lookups share one build; run under -race.
func TestConcurrentLookups(t *testing.T) {
	names := append(Names(), "straightline", "monotone", "nonesuch")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := names[(g+i)%len(names)]
				w, ok := ByName(name)
				if !ok {
					w, ok = MicroByName(name)
				}
				if ok && w.Name != name {
					t.Errorf("lookup %q returned %q", name, w.Name)
					return
				}
				w.Spec.Functions++ // a private copy: must not race with other readers
			}
		}(g)
	}
	wg.Wait()
}
