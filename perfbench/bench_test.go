package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBench compiles the benchmark once per test binary.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "perfbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// assertClean fails if the run left anything in its scratch directory's
// store area.
func assertClean(t *testing.T, work string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(work, "tmp"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind: %s", e.Name())
	}
}

func TestWorkloadsRunAndLeaveNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bin := buildBench(t)
	for _, wl := range []string{"cold-cells", "warm-sweep", "hot-jobs"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				work := t.TempDir()
				cmd := exec.Command(bin, "--workload", wl, "--seed", "3", "--seconds", "2", "--trace", trace,
					"--uops", "200000", "--work", work)
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				want := []string{"cells_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"}
				if trace == "1" {
					want = []string{"tracing.overhead_pct", "cluster.hop_ms.p50", "frontend.xbc.ns_per_uop", "store.put_us.p50"}
					if _, err := os.Stat(filepath.Join(work, "traces", wl+"-seed3.json")); err != nil {
						t.Errorf("no trace written: %v", err)
					}
				}
				for _, m := range want {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
				// Only cold-cells has known wrong results (the analysis
				// memo keys inline programs by their empty name).
				if wl != "cold-cells" && res.Failed != 0 {
					t.Errorf("failed = %d\n%s", res.Failed, out)
				}
				assertClean(t, work)
			})
		}
	}
}

// TestInterruptedRunCleansUp stops hot-jobs (the workload with stores and
// two nodes) mid-window with each catchable signal, then kills one
// outright and checks that the next run sweeps up what it left.
func TestInterruptedRunCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bin := buildBench(t)
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT, syscall.SIGKILL} {
		t.Run(sig.String(), func(t *testing.T) {
			work := t.TempDir()
			cmd := exec.Command(bin, "--workload", "hot-jobs", "--seed", "1", "--seconds", "60", "--work", work)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(stdout)
			var lines []string
			for sc.Scan() {
				lines = append(lines, sc.Text())
				if strings.HasPrefix(sc.Text(), "setup ") {
					break // the timed window has begun
				}
			}
			time.Sleep(time.Second)
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			for sc.Scan() {
				lines = append(lines, sc.Text())
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				t.Fatal("run did not stop within 30s of the signal")
			}
			if err == nil {
				t.Fatal("interrupted run exited 0")
			}
			if last := lines[len(lines)-1]; strings.HasPrefix(last, "{") {
				t.Fatalf("interrupted run printed a result: %s", last)
			}
			if sig == syscall.SIGKILL {
				// Nothing can clean up after SIGKILL; the next run must.
				next := exec.Command(bin, "--workload", "nope", "--work", work)
				if next.Run() == nil {
					t.Fatal("unknown workload exited 0")
				}
			}
			assertClean(t, work)
		})
	}
}

func TestDeadlineStopsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bin := buildBench(t)
	work := t.TempDir()
	start := time.Now()
	out, err := exec.Command(bin, "--workload", "hot-jobs", "--seconds", "60", "--deadline", "8s", "--work", work).Output()
	if err == nil {
		t.Fatalf("run past its deadline exited 0:\n%s", out)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("took %v to stop", d)
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Errorf("printed a result:\n%s", out)
	}
	assertClean(t, work)
}

// TestEvictedJobsAreCollected runs warm-sweep in this process against a
// node whose result cache holds 40 jobs, so that jobs are evicted before
// the client reads them, and checks that every cell still comes back done
// and unchanged.
func TestEvictedJobsAreCollected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	ctx := context.Background()
	b := newWarmSweep(3)
	st, err := startStack(stackConfig{nodes: 1, cacheJobs: 40, tmpRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{st: st, rec: newRecorder()}
	defer e.close()
	for c := 0; c < clients; c++ {
		e.clients = append(e.clients, newClient(st.nodes[0].url))
	}
	if err := b.warm(ctx, e); err != nil {
		t.Fatal(err)
	}
	w := closedLoop(ctx, 3*time.Second, b, e)
	for _, op := range w.ops {
		for _, msg := range op.errs {
			t.Error(msg)
		}
	}
	if e.rec.evicted.Load() == 0 {
		t.Error("no job was evicted before the client read it")
	}
	if bad := checkResults(checkSample(e.rec.all(), 3)); len(bad) != 0 {
		t.Errorf("wrong results: %+v", bad)
	}
}

func TestPercentileAndBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", got)
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

func TestSelfShares(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "submit", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "exec", Start: 5, End: 85},
		{ID: 4, Parent: 3, Name: "stream", Start: 5, End: 60},
		{ID: 5, Parent: 3, Name: "execute", Start: 60, End: 84},
	}
	got := selfShares(spans)
	want := map[string]float64{"job": 0.15, "submit": 0.10, "exec": 0.01, "stream": 0.55, "execute": 0.24}
	for k, w := range want {
		if d := got[k] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s self share = %v, want %v", k, got[k], w)
		}
	}
}
