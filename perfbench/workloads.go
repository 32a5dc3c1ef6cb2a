package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xbc/internal/program"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
	"xbc/internal/workload"
)

// opResult is one closed-loop operation as its client saw it.
type opResult struct {
	start, end time.Time
	units      int      // grid cells covered: 1 per job, the grid size per sweep
	done       int      // units that reached the done state
	errs       []string // transport errors and failed or aborted jobs
	status     string   // submit status of a single job ("cached", "queued", ...)
	state      string   // terminal state of a single job
	key        string   // content key of a single job
}

// env is what an operation runs against: the stack, one client per
// closed-loop slot, the tracer (nil when tracing is off) and the record of
// served results.
type env struct {
	st      *stack
	clients []*client
	tr      *tracer
	rec     *recorder
}

// bench is one workload.
type bench interface {
	// nodes and store shape the serving stack.
	nodes() int
	store() bool
	// reset rewinds the per-client request sequences before a set-up.
	reset()
	// warm brings a fresh stack to the workload's steady state through the
	// HTTP API only.
	warm(ctx context.Context, e *env) error
	// op runs client c's next operation.
	op(ctx context.Context, e *env, c int) opResult
	// tail is the tail percentile the workload reports (90 or 99).
	tail() int
	// inputs describes the workload's own inputs for the layer replay.
	inputs() replayInputs
}

const clients = 2

func newBench(name string, seed int64, uops uint64) (bench, error) {
	switch name {
	case "cold-cells":
		return newColdCells(seed, uops), nil
	case "warm-sweep":
		return newWarmSweep(seed), nil
	case "hot-jobs":
		return newHotJobs(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-cells, warm-sweep or hot-jobs)", name)
}

// close drops the clients' connections and tears the stack down.
func (e *env) close() {
	for _, c := range e.clients {
		c.close()
	}
	e.st.close()
}

// runJob submits one encoded spec, waits for its terminal state on the
// event stream, fetches the result and records it for the checks.
func (e *env) runJob(ctx context.Context, c, seq int, spec jobspec.Spec, body []byte) opResult {
	cl := e.clients[c]
	traced := e.tr.active()
	r := opResult{units: 1, start: time.Now()}
	sr, err := cl.submit(ctx, body)
	submitted := time.Now()
	if err != nil {
		r.end = submitted
		r.errs = append(r.errs, err.Error())
		return r
	}
	r.status, r.key = sr.Status, sr.ID
	r.state, err = e.collect(ctx, c, seq, spec, body, sr.ID)
	r.end = time.Now()
	if traced {
		root := e.tr.span(0, sr.ID, "job", r.start, r.end)
		e.tr.span(root, sr.ID, "submit", r.start, submitted)
		e.tr.submitted(sr.ID, r.start, root)
	}
	if err != nil {
		r.errs = append(r.errs, err.Error())
		return r
	}
	r.done = 1
	return r
}

// maxRefetches bounds how often collect starts over on one evicted job.
const maxRefetches = 3

// collect waits for job id's terminal state on its event stream, fetches
// the result and records it. It returns the terminal state, and an error
// unless the job is done and recorded.
//
// A node keeps finished jobs in a bounded result cache, so it may evict a
// job before the client has read it. If the job's endpoints answer 404,
// the client resubmits the spec (body, or the spec encoded when body is
// nil), as xbcctl's load generator does with lost jobs. If the fetch finds
// the key running again (evicted, then submitted anew by another cell or
// client), the client follows that job. Either way it counts the eviction,
// and the result it finally gets is recorded and checked like any other.
func (e *env) collect(ctx context.Context, c, seq int, spec jobspec.Spec, body []byte, id string) (string, error) {
	cl := e.clients[c]
	for attempt := 0; ; attempt++ {
		state, err := cl.wait(ctx, id)
		var j api.Job
		if err == nil {
			j, err = cl.job(ctx, id)
			state = j.State
		}
		retry := attempt < maxRefetches
		if errors.Is(err, errEvicted) && retry {
			e.rec.evicted.Add(1)
			if body == nil {
				if body, err = json.Marshal(spec); err != nil {
					return "", err
				}
			}
			sr, err := cl.submit(ctx, body)
			if err != nil {
				return "", err
			}
			id = sr.ID
			continue
		}
		if err != nil {
			return state, err
		}
		if !terminal(state) && retry {
			e.rec.evicted.Add(1)
			continue
		}
		if state != "done" {
			msg := fmt.Sprintf("job %s ended %s", id, state)
			if j.Error != "" {
				msg += ": " + j.Error
			}
			return state, errors.New(msg)
		}
		return state, e.rec.add(seq, spec, j, time.Now())
	}
}

// paperSpec returns the named paper workload's generator spec.
func paperSpec(name string) program.Spec {
	w, ok := workload.ByName(name)
	if !ok {
		panic("unknown paper workload " + name)
	}
	return w.Spec
}

// ---- cold-cells -----------------------------------------------------------

// coldCells submits single jobs, each an inline copy of one of the 21
// paper workload specs with a fresh generator seed, so every job misses
// the corpus and generates its stream. The frontend cycles through the
// five kinds and every other group of five runs sampled.
type coldCells struct {
	uops  uint64
	next  atomic.Int64
	specs []jobspec.Spec
	body  [][]byte
	warmN atomic.Int64
}

const coldJobs = 4096

func newColdCells(seed int64, uops uint64) *coldCells {
	w := &coldCells{uops: uops}
	w.specs, w.body = coldSequence(seed, uops, coldJobs)
	return w
}

// coldSequence draws n cold-cell jobs from seed. The jobs cycle through
// the 21 paper specs in one fixed order, so every seed runs the same mix
// of cheap and costly programs; the seed draws the generator seeds.
func coldSequence(seed int64, uops uint64, n int) ([]jobspec.Spec, [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	all := workload.All()
	order := rand.New(rand.NewSource(21)).Perm(len(all))
	kinds := jobspec.Kinds()
	specs := make([]jobspec.Spec, n)
	bodies := make([][]byte, n)
	for i := range specs {
		p := all[order[i%len(all)]].Spec
		p.Seed = rng.Int63() &^ 1
		fid := jobspec.FidelityFull
		if (i/len(kinds))%2 == 1 {
			fid = jobspec.FidelitySampled
		}
		specs[i] = jobspec.Spec{Frontend: kinds[i%len(kinds)], Program: &p, Uops: uops, Fidelity: fid}
		b, err := json.Marshal(specs[i])
		if err != nil {
			panic(err)
		}
		bodies[i] = b
	}
	return specs, bodies
}

func (w *coldCells) nodes() int  { return 1 }
func (w *coldCells) store() bool { return false }
func (w *coldCells) tail() int   { return 90 }
func (w *coldCells) reset()      { w.next.Store(0) }

// warm runs two xbc jobs on gcc's spec, one full and one sampled, one per
// client at once. Their generator seeds are fixed per set-up, not drawn
// from the benchmark seed, so every run warms the same way; they are
// odd, and the timed jobs' seeds are even, so no timed stream is warm.
//
// A warm-up job the server fails is reported and tolerated: the known
// analysis-memo defect can fail a sampled inline job (see README.md).
func (w *coldCells) warm(ctx context.Context, e *env) error {
	rep := w.warmN.Add(1)
	return parallel(clients, func(c int) error {
		p := paperSpec("gcc")
		p.Seed = 2*(rep*clients+int64(c)) + 1
		spec := jobspec.Spec{Frontend: jobspec.KindXBC, Program: &p, Uops: w.uops}
		if c == 1 {
			spec.Fidelity = jobspec.FidelitySampled
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		r := (&env{st: e.st, clients: e.clients, rec: newRecorder()}).runJob(ctx, c, -1, spec, body)
		switch {
		case len(r.errs) == 0:
		case r.state == "failed":
			fmt.Printf("failure setup: %s\n", r.errs[0])
		default:
			return fmt.Errorf("warm-up job: %s", r.errs[0])
		}
		return nil
	})
}

func (w *coldCells) op(ctx context.Context, e *env, c int) opResult {
	i := int(w.next.Add(1)-1) % len(w.specs)
	return e.runJob(ctx, c, i, w.specs[i], w.body[i])
}

func (w *coldCells) inputs() replayInputs {
	n := int(w.next.Load())
	if n > len(w.specs) {
		n = len(w.specs)
	}
	in := replayInputs{uops: w.uops, specs: w.specs[:max(n, 10)]}
	for _, s := range in.specs[:4] {
		in.programs = append(in.programs, *s.Program)
	}
	// A cold-cell client sends no sweeps; plan its jobs in sweep-sized
	// batches instead.
	for lo := 0; lo < len(in.specs); lo += 90 {
		in.batches = append(in.batches, in.specs[lo:min(lo+90, len(in.specs))])
	}
	return in
}

// ---- warm-sweep -----------------------------------------------------------

// warmSweep posts sweeps of 5 frontends x three paper workloads (one per
// suite) x {full, sampled} over three budgets. Sweep k of a client runs at
// stream length sweepUops[k%2] over its budgets k (new), k-1 (last
// sweep, other length: full cells restore its snapshots) and k-2 (two
// sweeps back, same length: served by the result cache).
type warmSweep struct {
	budgets [clients][]int
	k       [clients]int
	mu      sync.Mutex
	sent    []api.SweepRequest
}

var (
	sweepWorkloads = []string{"go", "freelnc", "descent"} // the cheapest of each suite
	sweepUops      = [2]uint64{200_000, 240_000}
)

const sweepsPerClient = 1024

func newWarmSweep(seed int64) *warmSweep {
	w := &warmSweep{}
	// Distinct budgets, so the two clients never share a cell. Budget i
	// lies in octave i%4 of [8K, 128K): the frontends round their set
	// counts down to a power of two, so the octave fixes the simulated
	// geometry, and cycling it gives every seed the same mix.
	rng := rand.New(rand.NewSource(seed))
	var octaves [4][]int
	for o := range octaves {
		lo := 8192 << o
		for _, j := range rng.Perm(lo / 64) {
			octaves[o] = append(octaves[o], lo+64*j)
		}
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < sweepsPerClient+2; i++ {
			oct := octaves[i%4]
			w.budgets[c] = append(w.budgets[c], oct[((i/4)*clients+c)%len(oct)])
		}
	}
	return w
}

func (w *warmSweep) nodes() int  { return 1 }
func (w *warmSweep) store() bool { return false }
func (w *warmSweep) tail() int   { return 90 }

func (w *warmSweep) reset() {
	w.k = [clients]int{}
	w.mu.Lock()
	w.sent = nil
	w.mu.Unlock()
}

// request is client c's sweep k.
func (w *warmSweep) request(c, k int) api.SweepRequest {
	b := w.budgets[c]
	return api.SweepRequest{
		Frontends:  jobspec.Kinds(),
		Workloads:  sweepWorkloads,
		Budgets:    []int{b[(k+2)%len(b)], b[(k+1)%len(b)], b[k%len(b)]},
		Fidelities: []string{jobspec.FidelityFull, jobspec.FidelitySampled},
		Uops:       sweepUops[k%2],
	}
}

// cellSpecs lists a sweep's cells in the server's grid order (frontends
// outer, then workloads, budgets, fidelities).
func cellSpecs(req api.SweepRequest) []jobspec.Spec {
	var out []jobspec.Spec
	for _, fe := range req.Frontends {
		for _, wl := range req.Workloads {
			for _, b := range req.Budgets {
				for _, fid := range req.Fidelities {
					out = append(out, jobspec.Spec{Frontend: fe, Workload: wl, Budget: b, Fidelity: fid, Uops: req.Uops})
				}
			}
		}
	}
	return out
}

// warm runs each client's first two sweeps, one at each stream length:
// that generates both lengths' streams and leaves the snapshots and
// cached cells the first timed sweep reuses.
func (w *warmSweep) warm(ctx context.Context, e *env) error {
	w.reset()
	for k := 0; k < 2; k++ {
		err := parallel(clients, func(c int) error {
			r := w.op(ctx, &env{st: e.st, clients: e.clients, rec: newRecorder()}, c)
			if len(r.errs) > 0 {
				return fmt.Errorf("warm-up sweep: %s", r.errs[0])
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	w.mu.Lock()
	w.sent = nil
	w.mu.Unlock()
	return nil
}

func (w *warmSweep) op(ctx context.Context, e *env, c int) opResult {
	k := w.k[c]
	w.k[c]++
	req := w.request(c, k)
	w.mu.Lock()
	w.sent = append(w.sent, req)
	w.mu.Unlock()
	cells := cellSpecs(req)
	cl := e.clients[c]
	traced := e.tr.active()
	r := opResult{units: len(cells), start: time.Now()}
	resp, err := cl.sweep(ctx, req)
	submitted := time.Now()
	if err == nil && len(resp.Jobs) != len(cells) {
		err = fmt.Errorf("sweep answered %d jobs for %d cells", len(resp.Jobs), len(cells))
	}
	if err != nil {
		r.end = submitted
		r.errs = append(r.errs, err.Error())
		return r
	}
	// Cells the result cache served are terminal already: collect them
	// first, before the cache can evict them while the client waits on
	// the simulated ones. Cells that share a job are collected once.
	order := make([]int, 0, len(resp.Jobs))
	for _, cached := range []bool{true, false} {
		for i, j := range resp.Jobs {
			if (j.Status == api.SubmitCached) == cached {
				order = append(order, i)
			}
		}
	}
	outcome := map[string]error{}
	for _, i := range order {
		id := resp.Jobs[i].ID
		if _, ok := outcome[id]; !ok {
			_, outcome[id] = e.collect(ctx, c, k*clients+c, cells[i], nil, id)
		}
	}
	r.end = time.Now()
	if traced {
		job := fmt.Sprintf("sweep-%d-%d", c, k)
		root := e.tr.span(0, job, "sweep", r.start, r.end)
		e.tr.span(root, job, "submit", r.start, submitted)
		for id := range outcome {
			e.tr.submitted(id, r.start, root)
		}
	}
	for _, j := range resp.Jobs {
		if err := outcome[j.ID]; err != nil {
			r.errs = append(r.errs, fmt.Sprintf("cell %s: %s", j.ID, err))
			continue
		}
		r.done++
	}
	return r
}

func (w *warmSweep) inputs() replayInputs {
	in := replayInputs{uops: sweepUops[0]}
	for _, name := range sweepWorkloads {
		in.programs = append(in.programs, paperSpec(name))
	}
	w.mu.Lock()
	in.sweeps = append(in.sweeps, w.sent...)
	w.mu.Unlock()
	if len(in.sweeps) == 0 {
		in.sweeps = []api.SweepRequest{w.request(0, 0)}
	}
	in.specs = cellSpecs(in.sweeps[0])
	return in
}

// ---- hot-jobs -------------------------------------------------------------

// hotJobs drives a two-node cluster through node 0 only. Requests draw
// from a fixed catalogue of short cells with Zipf-like popularity; every
// tenth is a spec never sent before, which simulates and writes behind to
// the owner's store.
type hotJobs struct {
	catalogue []jobspec.Spec
	catBody   [][]byte
	fresh     []jobspec.Spec // shuffled never-catalogued specs
	seq       []int32        // request i: catalogue index, or -1 for the next fresh spec
	next      atomic.Int64
}

var hotWorkloads = []string{"gcc", "li", "perl", "word", "excel", "corel", "quake", "doom"}

const (
	hotUops     = 200_000
	hotRequests = 1 << 18
	hotNewEvery = 10
)

var hotBudgets = []int{16384, 32768, 65536, 131072}

// hotGrid is the catalogue as a sweep request.
func hotGrid() api.SweepRequest {
	return api.SweepRequest{
		Frontends:  jobspec.Kinds(),
		Workloads:  hotWorkloads,
		Budgets:    hotBudgets,
		Fidelities: []string{jobspec.FidelityFull, jobspec.FidelitySampled},
		Uops:       hotUops,
	}
}

func newHotJobs(seed int64) *hotJobs {
	w := &hotJobs{}
	seen := map[string]bool{}
	for _, s := range cellSpecs(hotGrid()) {
		k, err := s.Key()
		if err != nil {
			panic(err)
		}
		if seen[k] {
			continue // ic ignores the budget
		}
		seen[k] = true
		b, err := json.Marshal(s)
		if err != nil {
			panic(err)
		}
		w.catalogue = append(w.catalogue, s)
		w.catBody = append(w.catBody, b)
	}
	// Fresh specs: every run of 64 covers each workload x frontend x rung
	// once (ic ignores budgets, so it has none), at one budget; the budgets
	// cycle through the octaves of [8K, 128K) like warm-sweep's, skipping
	// the catalogue's.
	rng := rand.New(rand.NewSource(seed))
	var octaves [4][]int
	for o := range octaves {
		lo := 8192 << o
		for _, j := range rng.Perm(lo / 64) {
			if b := lo + 64*j; !slices.Contains(hotBudgets, b) {
				octaves[o] = append(octaves[o], b)
			}
		}
	}
	for m := 0; m < 4*len(octaves[0]); m++ {
		b := octaves[m%4][m/4]
		for _, wl := range hotWorkloads {
			for _, fe := range jobspec.Kinds()[1:] {
				for _, fid := range []string{jobspec.FidelityFull, jobspec.FidelitySampled} {
					w.fresh = append(w.fresh, jobspec.Spec{Frontend: fe, Workload: wl, Budget: b, Fidelity: fid, Uops: hotUops})
				}
			}
		}
	}
	rank := balancedRanks(w.catalogue, rng)
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(w.catalogue)-1))
	w.seq = make([]int32, hotRequests)
	for i := range w.seq {
		if i%hotNewEvery == hotNewEvery-1 {
			w.seq[i] = -1
		} else {
			w.seq[i] = int32(rank[z.Uint64()])
		}
	}
	return w
}

// balancedRanks maps popularity rank to catalogue index so that ranks
// alternate between cells node 0 owns (served locally) and cells node 1
// owns (one forwarding hop): the local/forwarded mix then hardly depends
// on which cells the seed makes popular.
func balancedRanks(cat []jobspec.Spec, rng *rand.Rand) []int {
	ring := ringOf(2)
	var own [2][]int
	for i, s := range cat {
		k, err := s.Key()
		if err != nil {
			panic(err)
		}
		n := 0
		if ring.Owner(k) != nodeName(0) {
			n = 1
		}
		own[n] = append(own[n], i)
	}
	var out []int
	for n := range own {
		rng.Shuffle(len(own[n]), func(i, j int) { own[n][i], own[n][j] = own[n][j], own[n][i] })
	}
	for r := 0; len(own[0])+len(own[1]) > 0; r++ {
		n := r % 2
		if len(own[n]) == 0 {
			n = 1 - n
		}
		out = append(out, own[n][0])
		own[n] = own[n][1:]
	}
	return out
}

func (w *hotJobs) nodes() int  { return 2 }
func (w *hotJobs) store() bool { return true }
func (w *hotJobs) tail() int   { return 99 }
func (w *hotJobs) reset()      { w.next.Store(0) }

// warm submits the whole catalogue through node 0, half per client, so
// every cell is simulated, cached by its owner and written to its store.
func (w *hotJobs) warm(ctx context.Context, e *env) error {
	quiet := &env{st: e.st, clients: e.clients, rec: newRecorder()}
	return parallel(clients, func(c int) error {
		for i := c; i < len(w.catalogue); i += clients {
			if r := quiet.runJob(ctx, c, -1, w.catalogue[i], w.catBody[i]); len(r.errs) > 0 {
				return fmt.Errorf("warm-up job: %s", r.errs[0])
			}
		}
		return nil
	})
}

func (w *hotJobs) op(ctx context.Context, e *env, c int) opResult {
	i := int(w.next.Add(1) - 1)
	if ci := w.seq[i%len(w.seq)]; ci >= 0 {
		return e.runJob(ctx, c, i, w.catalogue[ci], w.catBody[ci])
	}
	spec := w.fresh[(i/hotNewEvery)%len(w.fresh)]
	b, err := json.Marshal(spec)
	if err != nil {
		return opResult{units: 1, start: time.Now(), end: time.Now(), errs: []string{err.Error()}}
	}
	return e.runJob(ctx, c, i, spec, b)
}

func (w *hotJobs) inputs() replayInputs {
	in := replayInputs{uops: hotUops, specs: w.catalogue, sweeps: []api.SweepRequest{hotGrid()}}
	for _, name := range hotWorkloads[:4] {
		in.programs = append(in.programs, paperSpec(name))
	}
	return in
}

// parallel runs f for 0..n-1 at once and returns the first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- served results -------------------------------------------------------

// served is one distinct result as a client first received it.
type served struct {
	seq  int          // deterministic request order, for check sampling
	spec jobspec.Spec // as requested
	job  api.Job      // as served
	at   time.Time    // when the client saw it terminal
	enc  []byte       // canonical encoding of the checked fields
}

// checked is the part of a served result the checks compare.
type checked struct {
	Fidelity    string             `json:"fidelity"`
	Metrics     any                `json:"metrics"`
	ErrorBound  map[string]float64 `json:"error_bound"`
	SampledUops uint64             `json:"sampled_uops"`
}

func encodeChecked(j api.Job) []byte {
	b, err := json.Marshal(checked{Fidelity: j.Fidelity, Metrics: j.Metrics, ErrorBound: j.ErrorBound, SampledUops: j.SampledUops})
	if err != nil {
		panic(err)
	}
	return b
}

// recorder keeps the first served result per content key, and fails a
// later serving of the same key that differs from it.
type recorder struct {
	mu   sync.Mutex
	byID map[string]*served
	// evicted counts jobs a node evicted before the client read them
	// (see env.collect).
	evicted atomic.Int64
}

func newRecorder() *recorder { return &recorder{byID: map[string]*served{}} }

func (r *recorder) add(seq int, spec jobspec.Spec, j api.Job, at time.Time) error {
	if seq < 0 {
		return nil
	}
	enc := encodeChecked(j)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byID[j.ID]; ok {
		if string(prev.enc) != string(enc) {
			return fmt.Errorf("job %s served two different results", j.ID)
		}
		return nil
	}
	r.byID[j.ID] = &served{seq: seq, spec: spec, job: j, at: at, enc: enc}
	return nil
}

// all returns the served results in request order.
func (r *recorder) all() []*served {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*served, 0, len(r.byID))
	for _, s := range r.byID {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].seq != out[j].seq {
			return out[i].seq < out[j].seq
		}
		return out[i].job.ID < out[j].job.ID
	})
	return out
}
