package jobspec

import (
	"reflect"
	"strings"
	"testing"

	"xbc/internal/interval"
	"xbc/internal/workload"
)

func TestKeyStability(t *testing.T) {
	a := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 100_000, Budget: 16384}
	b := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 100_000, Budget: 16384}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("equal specs keyed differently: %s vs %s", ka, kb)
	}
	if len(ka) != 64 {
		t.Fatalf("key %q is not hex sha256", ka)
	}
}

func TestKeyDefaultsNormalize(t *testing.T) {
	implicit := Spec{Frontend: KindTC, Workload: "gcc"}
	explicit := Spec{Frontend: KindTC, Workload: "gcc", Uops: DefaultUops, Budget: DefaultBudget}
	ki, _ := implicit.Key()
	ke, _ := explicit.Key()
	if ki != ke {
		t.Fatal("defaulted and explicit-default specs must share a key")
	}
}

func TestKeyNamedVsInlineWorkload(t *testing.T) {
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("compress missing")
	}
	named := Spec{Frontend: KindXBC, Workload: "compress", Uops: 50_000}
	inline := Spec{Frontend: KindXBC, Program: &w.Spec, Uops: 50_000}
	kn, err := named.Key()
	if err != nil {
		t.Fatal(err)
	}
	ki, err := inline.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kn != ki {
		t.Fatal("a named workload and its inline program spec must coalesce to one key")
	}
}

func TestKeySensitivity(t *testing.T) {
	base := Spec{Frontend: KindXBC, Workload: "gcc", Uops: 100_000, Budget: 16384}
	variants := []Spec{
		{Frontend: KindTC, Workload: "gcc", Uops: 100_000, Budget: 16384},
		{Frontend: KindXBC, Workload: "go", Uops: 100_000, Budget: 16384},
		{Frontend: KindXBC, Workload: "gcc", Uops: 200_000, Budget: 16384},
		{Frontend: KindXBC, Workload: "gcc", Uops: 100_000, Budget: 32768},
		{Frontend: KindXBC, Workload: "gcc", Uops: 100_000, Budget: 16384, Check: true},
		{Frontend: KindXBC, Workload: "gcc", Uops: 100_000, Budget: 16384,
			Core: &interval.CoreConfig{IssueWidth: 8, WindowSize: 128, FrontPipeDepth: 5}},
	}
	kb, _ := base.Key()
	seen := map[string]int{kb: -1}
	for i, v := range variants {
		k, err := v.Key()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d", i, prev)
		}
		seen[k] = i
	}
}

func TestICBudgetIrrelevant(t *testing.T) {
	a := Spec{Frontend: KindIC, Workload: "gcc", Uops: 50_000, Budget: 8192}
	b := Spec{Frontend: KindIC, Workload: "gcc", Uops: 50_000, Budget: 65536}
	ka, _ := a.Key()
	kb, _ := b.Key()
	if ka != kb {
		t.Fatal("the ic frontend ignores budget; it must not split the key")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown frontend", Spec{Frontend: "gpu", Workload: "gcc"}, "unknown frontend"},
		{"no trace", Spec{Frontend: KindXBC}, "no trace"},
		{"unknown workload", Spec{Frontend: KindXBC, Workload: "nope"}, "unknown workload"},
		{"tiny budget", Spec{Frontend: KindXBC, Workload: "gcc", Budget: 16}, "floor"},
		{"invalid core", Spec{Frontend: KindXBC, Workload: "gcc",
			Core: &interval.CoreConfig{IssueWidth: 0, WindowSize: 128, FrontPipeDepth: 5}}, "core config"},
	}
	for _, c := range cases {
		err := c.spec.Normalize().Validate()
		if err == nil {
			t.Errorf("%s: validated, want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// An invalid core config must fail at validation — before any worker sees
// the job — and Key must refuse to mint an identity for it.
func TestInvalidCoreFailsValidationNotExecution(t *testing.T) {
	s := Spec{Frontend: KindXBC, Workload: "straightline", Uops: 10_000,
		Core: &interval.CoreConfig{IssueWidth: -1}}
	if _, err := s.Key(); err == nil {
		t.Fatal("Key accepted an invalid core config")
	}
	if _, err := Execute(s); err == nil || !strings.Contains(err.Error(), "core config") {
		t.Fatalf("Execute error = %v, want core config validation failure", err)
	}
}

func TestExecuteAttachesEstimate(t *testing.T) {
	core := interval.DefaultCore()
	res, err := Execute(Spec{Frontend: KindXBC, Workload: "straightline", Uops: 20_000, Budget: 4096, Core: &core})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Uops == 0 {
		t.Fatal("empty metrics")
	}
	if res.Estimate == nil || res.Estimate.UopsPerCycle <= 0 {
		t.Fatalf("estimate missing or degenerate: %+v", res.Estimate)
	}
	// Without a core config the estimate is absent.
	res2, err := Execute(Spec{Frontend: KindXBC, Workload: "straightline", Uops: 20_000, Budget: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Estimate != nil {
		t.Fatal("estimate attached without a core config")
	}
}

func TestNewFrontendAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		fe, err := Spec{Frontend: kind, Workload: "straightline", Uops: 1000, Budget: 4096}.NewFrontend()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if fe.Name() == "" {
			t.Fatalf("%s: unnamed frontend", kind)
		}
	}
	if _, err := (Spec{Frontend: KindIC, Workload: "gcc", Ports: 2}).NewFrontend(); err != nil {
		t.Fatalf("multi-ported ic: %v", err)
	}
}

func TestParseWorkloadList(t *testing.T) {
	ws, err := ParseWorkloadList(" gcc, quake ,loopnest")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || ws[0].Name != "gcc" || ws[1].Name != "quake" || ws[2].Name != "loopnest" {
		t.Fatalf("parsed %+v", ws)
	}
	if _, err := ParseWorkloadList("gcc,banana"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if ws, err := ParseWorkloadList("  "); err != nil || ws != nil {
		t.Fatalf("empty list: %v %v", ws, err)
	}
}

// Canonical is Normalize + Validate + Key in one pass. Its keys are the
// ones results are persisted under, so they are pinned: a change here
// orphans every stored result.
func TestCanonicalMatchesKeyAndNormalize(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		key  string
	}{
		{Spec{Frontend: KindXBC, Workload: "gcc"}, "ea28c01279f044ab4995d631015670b7c52ba32e9ca3cac2f56df1e745804c36"},
		{Spec{Frontend: KindIC, Workload: "quake", Uops: 200_000, Fidelity: FidelitySampled}, "a627b7ec6a527851a8901736aa6610467cb6cb1549f7d1228f1f97f04fbab78c"},
		{Spec{Frontend: KindTC, Workload: "loopnest", Budget: 8192}, "6a00a2d4aa520bac610b42ab168bcdb73cb669306c19c1e82675f66d75eff2f7"},
	} {
		n, key, err := c.spec.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Label(), err)
		}
		if key != c.key {
			t.Errorf("%s: key %s, want %s", c.spec.Label(), key, c.key)
		}
		if k, _ := c.spec.Key(); k != key {
			t.Errorf("%s: Key() %s differs from Canonical %s", c.spec.Label(), k, key)
		}
		if want := c.spec.Normalize(); !reflect.DeepEqual(n, want) {
			t.Errorf("%s: canonical spec %+v, want Normalize() %+v", c.spec.Label(), n, want)
		}
	}
	if _, _, err := (Spec{Frontend: KindXBC, Workload: "nonesuch"}).Canonical(); err == nil {
		t.Fatal("unknown workload canonicalized")
	}
}
