// Command perfbench is the xbcd benchmark: it starts the serving stack in
// its own process on loopback listeners, drives it in a closed loop with
// two clients over the HTTP API, checks a seed-drawn sample of the served
// results against the uncached reference path, and prints every metric.
//
//	perfbench --workload cold-cells|warm-sweep|hot-jobs --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the per-layer
// ones with --trace 1). See README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	uops     uint64
	work     string // directory for store dirs and traces
}

func main() { os.Exit(mainCode()) }

func mainCode() int {
	var cfg config
	var traceFlag int
	var deadline time.Duration
	flag.StringVar(&cfg.workload, "workload", "", "cold-cells, warm-sweep or hot-jobs")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1: also run a traced window and report the per-layer metrics")
	flag.Uint64Var(&cfg.uops, "uops", 1_000_000, "cold-cells stream length")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and traces")
	flag.DurationVar(&deadline, "deadline", 170*time.Second, "abort (cleanly, without a result) after this long")
	flag.Parse()
	cfg.trace = traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

func run(ctx context.Context, cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	tmpRoot := filepath.Join(cfg.work, "tmp")
	sweepStaleDirs(tmpRoot)
	b, err := newBench(cfg.workload, cfg.seed, cfg.uops)
	if err != nil {
		return nil, err
	}
	fmt.Println(hostFacts())
	fmt.Printf("workload %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	var tr *tracer
	sc := stackConfig{nodes: b.nodes(), store: b.store(), tmpRoot: tmpRoot}
	if cfg.trace {
		tr = newTracer()
		sc.exec = tr.exec
	}

	// Set up several times, keeping the last stack.
	var setups []float64
	var e *env
	closeEnv := func() {
		if e != nil {
			e.close()
			e = nil
		}
	}
	defer closeEnv()
	for rep := 0; rep < setupReps; rep++ {
		closeEnv()
		t0 := time.Now()
		st, err := startStack(sc)
		if err != nil {
			return nil, err
		}
		e = &env{st: st, tr: tr, rec: newRecorder()}
		for c := 0; c < clients; c++ {
			e.clients = append(e.clients, newClient(st.nodes[0].url))
		}
		b.reset()
		if err := b.warm(ctx, e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Printf("setup runs=%d seconds=%v\n", len(setups), setups)

	// The timed window; when tracing, an untraced half and a traced half.
	window := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced windowStats
	var rss, heapMB, pauseMS float64
	counters := map[string]float64{}
	if !cfg.trace {
		plain = closedLoop(ctx, window, b, e)
		if rss, err = peakRSSMB(); err != nil {
			return nil, err
		}
	} else {
		plain = closedLoop(ctx, window/2, b, e)
		before, err := scrape(ctx, e.st)
		if err != nil {
			return nil, err
		}
		rw := watchRuntime()
		tr.on.Store(true)
		traced = closedLoop(ctx, window/2, b, e)
		tr.on.Store(false)
		heapMB, pauseMS = rw.done()
		after, err := scrape(ctx, e.st)
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			counters[k] = v - before[k]
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rec, ring := e.rec, e.st.ring
	closeEnv() // the checks and the replay run with no stack up

	// Result checks.
	sample := checkSample(rec.all(), cfg.seed)
	bad := checkResults(sample)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	wrong := map[string]bool{}
	for _, m := range bad {
		wrong[m.key] = true
		fmt.Printf("failure check key=%s cell=%s: %s\n", m.key, m.label, m.why)
	}
	var wrongAt []time.Time
	for _, s := range rec.all() {
		if wrong[s.job.ID] {
			wrongAt = append(wrongAt, s.at)
		}
	}
	out := &result{Metrics: map[string]metricValue{}}
	for _, w := range []windowStats{plain, traced} {
		for _, op := range w.ops {
			out.Attempted += op.units
			out.Failed += op.units - op.done
			for _, msg := range op.errs {
				fmt.Printf("failure op: %s\n", msg)
			}
		}
	}
	out.Failed += len(bad)
	out.Correct = out.Failed == 0
	fmt.Printf("checks sampled=%d wrong=%d\n", len(sample), len(bad))
	fmt.Printf("ops attempted=%d succeeded=%d failed=%d evicted=%d\n", out.Attempted, out.Attempted-out.Failed, out.Failed, rec.evicted.Load())

	var ms []metric
	if !cfg.trace {
		ms = append(plain.endToEnd(b, wrongAt),
			metric{name: "setup_s", unit: "s", value: percentile(setups, 50), n: len(setups)},
			metric{name: "peak_rss_mb", unit: "MB", value: rss, n: 1})
	} else {
		spans, waits := tr.finish()
		path := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Printf("trace spans=%d written=%s\n", len(spans), path)
		if ms, err = perLayer(ctx, b, rec.all(), spans, waits, counters, traced, ring, tmpRoot); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		untraced, withTrace := plain.rate(nil), traced.rate(nil)
		ms = append(ms,
			metric{name: "runtime.gc_pause_ms.sum", unit: "ms", value: pauseMS, n: 1},
			metric{name: "runtime.heap_peak_mb", unit: "MB", value: heapMB, n: 1},
			metric{name: "tracing.overhead_pct", unit: "%", value: 100 * (1 - ratio(withTrace, untraced)), n: 2,
				note: fmt.Sprintf("untraced=%.4g/s traced=%.4g/s", untraced, withTrace)})
	}
	for _, m := range ms {
		line := fmt.Sprintf("metric %s value=%.6g unit=%s n=%d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += " " + m.note
		}
		fmt.Println(line)
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return out, nil
}

// windowStats is one timed window of the closed loop.
type windowStats struct {
	start, end time.Time
	ops        []opResult
}

// closedLoop runs every client for d: each sends its next operation only
// once the previous one is terminal. Operations still in flight when the
// window closes finish (and are accounted) but lie outside it.
func closedLoop(ctx context.Context, d time.Duration, b bench, e *env) windowStats {
	w := windowStats{start: time.Now()}
	w.end = w.start.Add(d)
	per := make([][]opResult, len(e.clients))
	// The loop bodies return no errors.
	_ = parallel(len(e.clients), func(c int) error {
		for time.Now().Before(w.end) && ctx.Err() == nil {
			per[c] = append(per[c], b.op(ctx, e, c))
		}
		return nil
	})
	for _, ops := range per {
		w.ops = append(w.ops, ops...)
	}
	return w
}

// inWindow reports whether the op finished inside the window.
func (w windowStats) inWindow(op opResult) bool {
	return !op.end.Before(w.start) && !op.end.After(w.end)
}

// split cuts the window into k equal sub-windows.
func (w windowStats) split(k int) []windowStats {
	step := w.end.Sub(w.start) / time.Duration(k)
	out := make([]windowStats, k)
	for i := range out {
		out[i] = windowStats{start: w.start.Add(time.Duration(i) * step), ops: w.ops}
		out[i].end = out[i].start.Add(step)
	}
	return out
}

// rate is the units that finished done inside the window, less the
// results the checks found wrong (served at the given times), per second
// from the window's start to the last of those finishes: dividing by the
// whole window would round the rate to whole operations.
func (w windowStats) rate(wrongAt []time.Time) float64 {
	good := 0
	var last time.Time
	for _, op := range w.ops {
		if w.inWindow(op) {
			good += op.done
			if op.end.After(last) {
				last = op.end
			}
		}
	}
	if last.IsZero() {
		last = w.end
	}
	for _, at := range wrongAt {
		if w.inWindow(opResult{end: at}) {
			good--
		}
	}
	return float64(good) / last.Sub(w.start).Seconds()
}

// latencies are the clean operations that finished in the window, in ms.
func (w windowStats) latencies() []float64 {
	var out []float64
	for _, op := range w.ops {
		if w.inWindow(op) && len(op.errs) == 0 && op.done == op.units {
			out = append(out, ms(op.end.Sub(op.start)))
		}
	}
	return out
}

// endToEnd reports each figure as the median over sub-windows, so that
// a short slowdown of the host moves one sub-window, not the result. It
// uses as many sub-windows, up to six, as still hold enough samples for
// ten to lie beyond the tail percentile: six on hot-jobs, and one, the
// whole window, on cold-cells and warm-sweep, whose few long operations
// would make a sub-window's rate coarse.
func (w windowStats) endToEnd(b bench, wrongAt []time.Time) []metric {
	p := float64(b.tail())
	n := len(w.latencies())
	k := max(1, min(6, n*(100-b.tail())/1000))
	var rates, p50s, tails []float64
	minBeyond := n
	for _, sw := range w.split(k) {
		lat := sw.latencies()
		rates = append(rates, sw.rate(wrongAt))
		p50s = append(p50s, percentile(lat, 50))
		tails = append(tails, percentile(lat, p))
		minBeyond = min(minBeyond, beyond(len(lat), p))
	}
	note := fmt.Sprintf("median of %d sub-window(s)", k)
	tail := metric{name: "latency_tail_ms", unit: "ms", value: percentile(tails, 50), n: n,
		note: fmt.Sprintf("percentile=p%d beyond=%d (fewest in a sub-window), %s", b.tail(), minBeyond, note)}
	if minBeyond < 10 {
		tail.note += "; fewer than 10 samples beyond the percentile"
	}
	return []metric{
		{name: "cells_per_s", unit: "1/s", value: percentile(rates, 50), n: len(w.ops), note: note},
		{name: "latency_p50_ms", unit: "ms", value: percentile(p50s, 50), n: n, note: note},
		tail,
	}
}

// scrape sums /metrics over every node of the stack.
func scrape(ctx context.Context, st *stack) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, n := range st.nodes {
		c := newClient(n.url)
		m, err := c.metrics(ctx)
		c.close()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}
