package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int    // samples behind the value
	note  string // e.g. which percentile a tail metric is
}

// percentile is the nearest-rank p-th percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(n, r))
}

// beyond counts the samples that lie above the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostFacts describes the machine a result was measured on.
func hostFacts() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeWatch samples runtime/metrics while a window runs: the peak live
// heap (sampled every 10 ms) and the total GC pause time.
type runtimeWatch struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	pause0 float64
	peak   float64
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	gcPauses    = "/sched/pauses/total/gc:seconds"
)

func readRuntime() (heap, pauseSeconds float64) {
	s := []metrics.Sample{{Name: heapObjects}, {Name: gcPauses}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		heap = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			pauseSeconds += float64(c) * (lo + hi) / 2
		}
	}
	return heap, pauseSeconds
}

func watchRuntime() *runtimeWatch {
	w := &runtimeWatch{stop: make(chan struct{})}
	w.peak, w.pause0 = readRuntime()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if h, _ := readRuntime(); h > w.peak {
					w.peak = h
				}
			}
		}
	}()
	return w
}

// done stops sampling and returns (peak heap MiB, GC pause ms).
func (w *runtimeWatch) done() (float64, float64) {
	close(w.stop)
	w.wg.Wait()
	h, p := readRuntime()
	w.peak = math.Max(w.peak, h)
	return w.peak / (1 << 20), (p - w.pause0) * 1e3
}
