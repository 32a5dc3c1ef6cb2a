package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xbc/internal/experiments"
	"xbc/internal/service/jobspec"
)

// span is one timed call: the benchmark's own call into a layer. Times
// are nanoseconds since the tracer's epoch. Job is the content key of the
// job the call served (or a sweep id); Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while it is on. Client-side spans (job or
// sweep, submit) come from the closed loop; server-side spans (exec,
// stream, execute) come from the service's Options.Exec hook. An exec
// span's parent is the client root that submitted its key, resolved when
// the trace is closed.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu     sync.Mutex
	spans  []span
	submit map[string][]submission // key -> client submissions
}

type submission struct {
	at   int64
	root int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), submit: map[string][]submission{}}
}

// active reports whether operations starting now are traced.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// span records one span and returns its id.
func (t *tracer) span(parent int64, job, name string, start, end time.Time) int64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: t.ns(start), End: t.ns(end)})
	t.mu.Unlock()
	return id
}

// submitted notes that a client root submitted key at the given time.
func (t *tracer) submitted(key string, at time.Time, root int64) {
	t.mu.Lock()
	t.submit[key] = append(t.submit[key], submission{at: t.ns(at), root: root})
	t.mu.Unlock()
}

// exec is the traced Options.Exec: a span around the corpus lookup
// (experiments.StreamFor, which generates on a miss) and one around
// jobspec.Execute, which then finds the stream in the corpus. Untraced
// windows call jobspec.Execute directly.
func (t *tracer) exec(s jobspec.Spec) (jobspec.Result, error) {
	if !t.active() {
		return jobspec.Execute(s)
	}
	start := time.Now()
	key, err := s.Key()
	if err != nil {
		return jobspec.Result{}, err
	}
	n := s.Normalize()
	t0 := time.Now()
	if _, err := experiments.StreamFor(*n.Program, n.Uops); err != nil {
		return jobspec.Result{}, err
	}
	t1 := time.Now()
	res, err := jobspec.Execute(s)
	t2 := time.Now()
	root := t.span(0, key, "exec", start, t2)
	t.span(root, key, "stream", t0, t1)
	t.span(root, key, "execute", t1, t2)
	return res, err
}

// finish resolves exec spans to the client root that submitted their key
// most recently before they started, and returns the spans plus each
// exec's queue wait (exec start minus that submission, in ms).
func (t *tracer) finish() ([]span, []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var waits []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "exec" {
			continue
		}
		var best *submission
		for j, sub := range t.submit[s.Job] {
			if sub.at <= s.Start && (best == nil || sub.at > best.at) {
				best = &t.submit[s.Job][j]
			}
		}
		if best != nil {
			s.Parent = best.root
			waits = append(waits, float64(s.Start-best.at)/1e6)
		}
	}
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, waits
}

// byName returns the durations in ms of the spans with the given name.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfShares computes each span name's self time (its duration minus the
// union of its children's intervals within it) as a share of the total
// root time.
func selfShares(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	var roots float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name != "exec" {
			roots += float64(s.dur())
		}
		self[s.Name] += float64(s.dur() - covered(s, children[s.ID]))
	}
	if roots == 0 {
		return self
	}
	for k := range self {
		self[k] /= roots
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes the trace as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
