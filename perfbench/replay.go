package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"xbc/internal/frontend"
	"xbc/internal/planner"
	"xbc/internal/planner/grid"
	"xbc/internal/program"
	"xbc/internal/sampling"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
	"xbc/internal/store"
	"xbc/internal/trace"
)

// replayInputs are a workload's own inputs, handed to the layer replay.
type replayInputs struct {
	programs []program.Spec     // generator specs to build and walk
	uops     uint64             // stream length of those walks
	specs    []jobspec.Spec     // job specs to key
	sweeps   []api.SweepRequest // sweep requests to plan
	batches  [][]jobspec.Spec   // job batches to plan when there are no sweeps
}

// replay times each layer's public functions on the workload's inputs,
// outside any serving stack.
func replay(in replayInputs, results []*served, tmpRoot string) ([]metric, error) {
	var out []metric

	var builds, gens, perUop, analyses []float64
	var streams []*trace.Stream
	for _, ps := range in.programs {
		t0 := time.Now()
		p, err := program.Build(ps)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		st := trace.GenerateFrom(p, in.uops)
		t2 := time.Now()
		builds = append(builds, ms(t1.Sub(t0)))
		gens = append(gens, ms(t2.Sub(t1)))
		perUop = append(perUop, float64(t2.Sub(t1).Nanoseconds())/float64(st.Uops()))
		t3 := time.Now()
		if _, err := sampling.Analyze(st.Records(), sampling.ConfigFor(jobspec.FidelitySampled)); err != nil {
			return nil, err
		}
		analyses = append(analyses, ms(time.Since(t3)))
		streams = append(streams, st)
	}
	n := len(in.programs)
	out = append(out,
		metric{name: "program.build_ms.p50", unit: "ms", value: percentile(builds, 50), n: n},
		metric{name: "trace.generate_ms.p50", unit: "ms", value: percentile(gens, 50), n: n},
		metric{name: "trace.generate_ns_per_uop", unit: "ns", value: percentile(perUop, 50), n: n},
		metric{name: "sampling.analyze_ms.p50", unit: "ms", value: percentile(analyses, 50), n: n})

	// Frontend simulation on a warm stream, three rounds, median per kind.
	st := streams[0]
	for _, kind := range jobspec.Kinds() {
		var per []float64
		for round := 0; round < 3; round++ {
			fe, err := jobspec.Spec{Frontend: kind}.NewFrontend()
			if err != nil {
				return nil, err
			}
			st.Reset()
			t0 := time.Now()
			if _, err := frontend.RunSafe(fe, st); err != nil {
				return nil, err
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(st.Uops()))
		}
		out = append(out, metric{name: "frontend." + kind + ".ns_per_uop", unit: "ns", value: percentile(per, 50), n: len(per)})
	}

	var keys []float64
	for round := 0; round < 3; round++ {
		for _, s := range in.specs {
			t0 := time.Now()
			if _, err := s.Key(); err != nil {
				return nil, err
			}
			keys = append(keys, us(time.Since(t0)))
		}
	}
	out = append(out, metric{name: "jobspec.key_us.p50", unit: "us", value: percentile(keys, 50), n: len(keys)})

	var plans []float64
	for _, req := range in.sweeps {
		t0 := time.Now()
		cells, err := grid.Expand(grid.Grid{Frontends: req.Frontends, Workloads: req.Workloads, Budgets: req.Budgets, Fidelities: req.Fidelities, Uops: req.Uops})
		if err != nil {
			return nil, err
		}
		planCells(cells)
		plans = append(plans, ms(time.Since(t0)))
	}
	for _, batch := range in.batches {
		t0 := time.Now()
		cells := make([]grid.Cell, 0, len(batch))
		for _, s := range batch {
			c, err := grid.Canonicalize(s)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
		planCells(cells)
		plans = append(plans, ms(time.Since(t0)))
	}
	out = append(out, metric{name: "planner.plan_ms.p50", unit: "ms", value: percentile(plans, 50), n: len(plans)})

	get, put, err := replayStore(results, tmpRoot)
	if err != nil {
		return nil, err
	}
	return append(out,
		metric{name: "store.get_us.p50", unit: "us", value: get, n: storeOps},
		metric{name: "store.put_us.p50", unit: "us", value: put, n: storeOps}), nil
}

func planCells(cells []grid.Cell) *planner.Plan {
	pc := make([]planner.Cell, len(cells))
	for i, c := range cells {
		pc[i] = planner.Cell{Key: c.Key, Locality: c.Locality}
	}
	return planner.NewPlan(pc)
}

// storeOps is how many Puts, then Gets, the store replay times.
const storeOps = 256

// replayStore times Put and Get on a scratch store with the workload's
// own served results as records.
func replayStore(results []*served, tmpRoot string) (get, put float64, err error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "run-"+strconv.Itoa(os.Getpid())+"-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "replay"), Fsync: store.FsyncInterval})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var vals [][]byte
	for _, r := range results {
		b, err := json.Marshal(r.job)
		if err != nil {
			return 0, 0, err
		}
		vals = append(vals, b)
	}
	if len(vals) == 0 {
		return 0, 0, fmt.Errorf("store replay: no served results")
	}
	var puts, gets []float64
	for i := 0; i < storeOps; i++ {
		key := fmt.Sprintf("replay-%04d", i)
		t0 := time.Now()
		if err := st.Put(key, vals[i%len(vals)]); err != nil {
			return 0, 0, err
		}
		puts = append(puts, us(time.Since(t0)))
	}
	for i := 0; i < storeOps; i++ {
		key := fmt.Sprintf("replay-%04d", (i*7)%storeOps)
		t0 := time.Now()
		if _, ok := st.Get(key); !ok {
			return 0, 0, fmt.Errorf("store replay: %s missing", key)
		}
		gets = append(gets, us(time.Since(t0)))
	}
	return percentile(gets, 50), percentile(puts, 50), nil
}

// replayHop measures the cluster hop for workloads that run on one node:
// a two-node loopback cluster whose Exec answers with the workload's own
// served results, so every repeat submission is a cache hit, local or one
// forwarding hop away. It returns p50(forwarded) - p50(local) in ms and
// the number of timed submissions.
func replayHop(ctx context.Context, results []*served, tmpRoot string) (float64, int, error) {
	byKey := map[string]jobspec.Result{}
	var specs []jobspec.Spec
	for _, r := range results {
		if len(specs) == 64 {
			break
		}
		res := jobspec.Result{Fidelity: r.job.Fidelity, ErrorBound: r.job.ErrorBound, SampledUops: r.job.SampledUops}
		if r.job.Metrics != nil {
			res.Metrics = *r.job.Metrics
		}
		byKey[r.job.ID] = res
		specs = append(specs, r.job.Spec)
	}
	exec := func(s jobspec.Spec) (jobspec.Result, error) {
		k, err := s.Key()
		if err != nil {
			return jobspec.Result{}, err
		}
		return byKey[k], nil
	}
	st, err := startStack(stackConfig{nodes: 2, exec: exec, tmpRoot: tmpRoot})
	if err != nil {
		return 0, 0, err
	}
	defer st.close()
	e := &env{st: st, clients: []*client{newClient(st.nodes[0].url)}, rec: newRecorder()}
	defer e.clients[0].close()
	var local, fwd []float64
	for round := 0; round < 4; round++ {
		for i, s := range specs {
			b, err := json.Marshal(s)
			if err != nil {
				return 0, 0, err
			}
			r := e.runJob(ctx, 0, i, s, b)
			if len(r.errs) > 0 {
				return 0, 0, fmt.Errorf("hop replay: %s", r.errs[0])
			}
			if round == 0 {
				continue // first submission executes
			}
			if st.ring.Owner(r.key) == nodeName(0) {
				local = append(local, ms(r.end.Sub(r.start)))
			} else {
				fwd = append(fwd, ms(r.end.Sub(r.start)))
			}
		}
	}
	if len(local) == 0 || len(fwd) == 0 {
		return 0, 0, fmt.Errorf("hop replay: %d local and %d forwarded samples", len(local), len(fwd))
	}
	return percentile(fwd, 50) - percentile(local, 50), len(local) + len(fwd), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
