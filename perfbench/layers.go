package main

import (
	"context"

	"xbc/internal/cluster"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// perLayer assembles the traced run's per-layer metrics from the spans,
// the /metrics counter deltas of the traced window, and the layer replay.
func perLayer(ctx context.Context, b bench, results []*served, spans []span, waits []float64,
	c map[string]float64, traced windowStats, ring *cluster.Ring, tmpRoot string) ([]metric, error) {
	stream, execute, submit := byName(spans, "stream"), byName(spans, "execute"), byName(spans, "submit")
	out := []metric{
		{name: "experiments.stream_ms.p50", unit: "ms", value: percentile(stream, 50), n: len(stream)},
		{name: "experiments.stream_ms.p90", unit: "ms", value: percentile(stream, 90), n: len(stream)},
		{name: "jobspec.execute_ms.p50", unit: "ms", value: percentile(execute, 50), n: len(execute)},
		{name: "service.queue_wait_ms.p50", unit: "ms", value: percentile(waits, 50), n: len(waits)},
		{name: "service.queue_wait_ms.p90", unit: "ms", value: percentile(waits, 90), n: len(waits)},
		{name: "service.submit_ms.p50", unit: "ms", value: percentile(submit, 50), n: len(submit)},
	}
	shares := selfShares(spans)
	shares["root"] = shares["job"] + shares["sweep"]
	for _, name := range []string{"root", "submit", "exec", "stream", "execute"} {
		out = append(out, metric{name: "span." + name + ".self_share", unit: "share", value: shares[name], n: len(spans)})
	}

	var sampledUops, uops float64
	var nSampled int
	for _, r := range results {
		if r.job.Fidelity == jobspec.FidelitySampled {
			sampledUops += float64(r.job.SampledUops)
			uops += float64(r.job.Spec.Normalize().Uops)
			nSampled++
		}
	}
	sub := c["xbcd_submissions_total"]
	planned := c["xbcd_sweep_cells_planned_total"]
	reused := c["xbcd_sweep_cells_deduped_total"] + c["xbcd_sweep_cells_cache_hits_total"] +
		c["xbcd_sweep_cells_store_hits_total"] + c["xbcd_sweep_cells_coalesced_total"]
	snapHits := c["xbcd_snapshot_hits_total"]
	storeHits := c["xbcd_store_hits_total"]
	requests := float64(3 * len(traced.ops)) // submit, event stream, result
	out = append(out,
		metric{name: "sampling.detail_uop_share", unit: "share", value: ratio(sampledUops, uops), n: nSampled},
		metric{name: "snapshot.hit_ratio", unit: "share", value: ratio(snapHits, snapHits+c["xbcd_snapshot_misses_total"]), n: 1},
		metric{name: "snapshot.saves", unit: "count", value: c["xbcd_snapshot_saves_total"], n: 1},
		metric{name: "planner.simulated_ratio", unit: "share", value: ratio(c["xbcd_sweep_cells_simulated_total"], planned), n: int(planned)},
		metric{name: "planner.reused_ratio", unit: "share", value: ratio(reused, planned), n: int(planned)},
		metric{name: "service.cache_hit_ratio", unit: "share", value: ratio(c["xbcd_cache_hits_total"], sub), n: int(sub)},
		metric{name: "service.coalesced_ratio", unit: "share", value: ratio(c["xbcd_jobs_coalesced_total"], sub), n: int(sub)},
		metric{name: "store.hit_ratio", unit: "share", value: ratio(storeHits, storeHits+c["xbcd_store_misses_total"]), n: 1},
		metric{name: "store.writes", unit: "count", value: c["xbcd_store_writes_total"], n: 1},
		metric{name: "store.write_errors", unit: "count", value: c["xbcd_store_write_errors_total"], n: 1},
		metric{name: "cluster.forward_ratio", unit: "share", value: ratio(c["xbcd_cluster_forwards_total"], requests), n: int(requests)},
		metric{name: "cluster.fallbacks", unit: "count", value: c["xbcd_cluster_fallbacks_total"], n: 1},
	)

	// The hop: forwarded minus local cache hits of the traced window on
	// the cluster workload, a two-node replay elsewhere.
	var hop float64
	var hopN int
	if ring != nil {
		var local, fwd []float64
		for _, op := range traced.ops {
			if op.status != api.SubmitCached || len(op.errs) > 0 || !traced.inWindow(op) {
				continue
			}
			if ring.Owner(op.key) == nodeName(0) {
				local = append(local, ms(op.end.Sub(op.start)))
			} else {
				fwd = append(fwd, ms(op.end.Sub(op.start)))
			}
		}
		hop, hopN = percentile(fwd, 50)-percentile(local, 50), len(local)+len(fwd)
	} else {
		var err error
		if hop, hopN, err = replayHop(ctx, results, tmpRoot); err != nil {
			return nil, err
		}
	}
	out = append(out, metric{name: "cluster.hop_ms.p50", unit: "ms", value: hop, n: hopN})

	rm, err := replay(b.inputs(), results, tmpRoot)
	if err != nil {
		return nil, err
	}
	return append(out, rm...), nil
}
