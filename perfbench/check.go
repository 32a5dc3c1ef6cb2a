package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"xbc/internal/frontend"
	"xbc/internal/sampling"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
	"xbc/internal/trace"
)

// mismatch is one served result that differs from the reference.
type mismatch struct {
	key, label, why string
}

// checkSample draws, with the benchmark seed, one served result per
// frontend x requested-rung pair from the earliest few of that pair, so
// every pair the workload ran is covered.
func checkSample(results []*served, seed int64) []*served {
	rng := rand.New(rand.NewSource(seed ^ 0x0c4ec))
	pairs := map[string][]*served{}
	var order []string
	for _, r := range results {
		p := r.spec.Frontend + "/" + rung(r.spec.Fidelity)
		if _, ok := pairs[p]; !ok {
			order = append(order, p)
		}
		pairs[p] = append(pairs[p], r)
	}
	var out []*served
	for _, p := range order {
		c := pairs[p][:min(4, len(pairs[p]))]
		out = append(out, c[rng.Intn(len(c))])
	}
	return out
}

func rung(f string) string {
	if f == "" {
		return jobspec.FidelityFull
	}
	return f
}

// checkResults recomputes each sampled result on the uncached public path
// (a freshly generated stream, then frontend.RunSafe for full results or
// sampling.Run for sampled ones) and compares metrics, error_bound and
// sampled_uops bit for bit. A sampled request served by its exact full
// sibling is checked against the full reference; a full request served
// anything but a full result is wrong.
func checkResults(sample []*served) []mismatch {
	var mu sync.Mutex
	var bad []mismatch
	work := make(chan *served)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				if why := checkOne(r); why != "" {
					mu.Lock()
					bad = append(bad, mismatch{key: r.job.ID, label: r.spec.Label() + "/" + rung(r.spec.Fidelity), why: why})
					mu.Unlock()
				}
			}
		}()
	}
	for _, r := range sample {
		work <- r
	}
	close(work)
	wg.Wait()
	sort.Slice(bad, func(i, j int) bool { return bad[i].key < bad[j].key })
	return bad
}

func checkOne(r *served) string {
	want := r.spec
	got := rung(r.job.Fidelity)
	switch {
	case got == jobspec.FidelityFull:
		want.Fidelity = ""
	case got != rung(want.Fidelity):
		return fmt.Sprintf("requested %s, served %s", rung(want.Fidelity), got)
	}
	ref, err := reference(want)
	if err != nil {
		return "reference: " + err.Error()
	}
	exp := encodeChecked(api.Job{Fidelity: ref.EffectiveFidelity(), Metrics: &ref.Metrics, ErrorBound: ref.ErrorBound, SampledUops: ref.SampledUops})
	served := r.job
	served.Fidelity = got
	if string(exp) != string(encodeChecked(served)) {
		return "differs from the uncached reference"
	}
	return ""
}

// reference computes a spec's result without the corpus, the analysis
// memo, snapshots or any cache.
func reference(s jobspec.Spec) (jobspec.Result, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return jobspec.Result{}, err
	}
	st, err := trace.Generate(*n.Program, n.Uops)
	if err != nil {
		return jobspec.Result{}, err
	}
	fe, err := n.NewFrontend()
	if err != nil {
		return jobspec.Result{}, err
	}
	if n.Fidelity == "" {
		m, err := frontend.RunSafe(fe, st)
		return jobspec.Result{Metrics: m, Fidelity: jobspec.FidelityFull}, err
	}
	sf, ok := fe.(frontend.SessionFrontend)
	if !ok {
		return jobspec.Result{}, fmt.Errorf("%s has no sessions", n.Frontend)
	}
	sr, err := sampling.Run(sf, st.Records(), frontend.DefaultConfig(), sampling.ConfigFor(n.Fidelity))
	if err != nil {
		return jobspec.Result{}, err
	}
	return jobspec.Result{Metrics: sr.Metrics, Fidelity: n.Fidelity, ErrorBound: sr.ErrorBound, SampledUops: sr.SimulatedUops}, nil
}
