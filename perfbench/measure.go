package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// minBeyond is the number of samples a percentile must have above it
// before it is reported as measured.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs and the number of
// samples beyond it. xs is sorted in place.
func quantile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], len(xs) - 1 - i
}

// median of a copy of xs.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// processCPU is the user+system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// snapshot captures the process counters a timed phase is measured
// against.
type snapshot struct {
	wall   time.Time
	cpu    time.Duration
	alloc  uint64
	numGC  uint32
	gcCPU  float64
	allCPU float64
}

var cpuClasses = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := append([]metrics.Sample(nil), cpuClasses...)
	metrics.Read(samples)
	return snapshot{
		wall:   time.Now(),
		cpu:    processCPU(),
		alloc:  ms.TotalAlloc,
		numGC:  ms.NumGC,
		gcCPU:  floatSample(samples[0]),
		allCPU: floatSample(samples[1]),
	}
}

func floatSample(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// heapSampler tracks the peak live heap by polling runtime/metrics; the
// traced run starts one and stops it before reporting.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
				h.peak = s[0].Value.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak it saw.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// spanRec is one recorded span: a public call the benchmark made.
type spanRec struct {
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spans records spans in memory for the traced run. A nil *spans is the
// untraced run: every method is a no-op. Only the benchmark's own
// goroutine records spans.
type spans struct {
	run  string
	t0   time.Time
	recs []spanRec
}

func newSpans(run string) *spans { return &spans{run: run, t0: time.Now()} }

// begin opens a span under parent (0 = root) and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	id := len(s.recs) + 1
	s.recs = append(s.recs, spanRec{Run: s.run, ID: id, Parent: parent, Name: name,
		StartUS: time.Since(s.t0).Microseconds(), EndUS: -1})
	return id
}

// end closes the span.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.recs[id-1].EndUS = time.Since(s.t0).Microseconds()
}

// write saves the spans as JSON lines.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range s.recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// taskSink is the obs sink the benchmark attaches to store-backed runs: it
// keeps each task's wall time (lift.Result replays a store hit's cold-lift
// wall, so the pipeline's own event is the only measure of what a hit
// cost), the store decode latencies and the corrupt-miss count.
type taskSink struct {
	mu      sync.Mutex
	walls   map[string]time.Duration
	decodes []float64
	corrupt int
}

func newTaskSink() *taskSink { return &taskSink{walls: map[string]time.Duration{}} }

func (t *taskSink) Emit(e obs.Event) {
	switch {
	case e.Kind == obs.KTaskFinish:
		t.mu.Lock()
		t.walls[e.Func] = e.Wall
		t.mu.Unlock()
	case e.Kind == obs.KStore && e.Status == "hit":
		t.mu.Lock()
		t.decodes = append(t.decodes, ms(e.Wall))
		t.mu.Unlock()
	case e.Kind == obs.KStore && e.Status == "miss" && e.Detail == "corrupt":
		t.mu.Lock()
		t.corrupt++
		t.mu.Unlock()
	}
}

// takeWalls returns the task walls recorded since the last call.
func (t *taskSink) takeWalls() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.walls
	t.walls = map[string]time.Duration{}
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSharePkgs are the layers the traced run attributes profile samples
// to: the inner packages only core calls, plus the runtime's GC and
// allocator.
var cpuSharePkgs = []string{"pred", "expr", "memmodel", "solver", "sem", "core",
	"triple", "hgstore", "hoare", "runtime.gc", "runtime.malloc"}

// runtimeGC and runtimeMalloc classify runtime functions by name.
var (
	runtimeGC = []string{"runtime.gc", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.scanframe", "runtime.greyobject", "runtime.findObject",
		"runtime.markBits", "runtime.mark", "runtime.sweep", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*mspan).sweep",
		"runtime.(*mspan).markBits", "runtime.(*mspan).typePointersOf", "runtime.(*mheap).nextSpanForSweep",
		"runtime.wbBuf", "runtime.(*wbBuf)", "runtime.bulkBarrier", "runtime.gcWriteBarrier",
		"runtime.typePointers", "runtime.(*typePointers)", "runtime.spanOf", "runtime.pageIndexOf",
		"runtime.(*sweepLocked)", "runtime.(*mspan).heapBits", "runtime.(*mspan).isFree",
		"runtime.(*mspan).base", "gcWriteBarrier"}
	runtimeMalloc = []string{"runtime.malloc", "runtime.nextFreeFast", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap).alloc", "runtime.(*mheap).allocSpan",
		"runtime.heapSetType", "runtime.(*mspan).init", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.memclrNoHeapPointers",
		"runtime.(*mspan).nextFreeIndex", "runtime.(*fixalloc)", "runtime.publicationBarrier",
		"runtime.(*mspan).writeHeapBits", "runtime.(*mspan).initHeapBits", "runtime.(*pageAlloc)",
		"runtime.(*pallocBits)", "runtime.(*pallocData)", "runtime.roundupsize", "runtime.deductAssistCredit"}
)

// layerOf maps a profile function name to one of cpuSharePkgs ("" when it
// belongs to none).
func layerOf(fn string) string {
	for _, p := range runtimeGC {
		if strings.HasPrefix(fn, p) {
			return "runtime.gc"
		}
	}
	for _, p := range runtimeMalloc {
		if strings.HasPrefix(fn, p) {
			return "runtime.malloc"
		}
	}
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	for _, p := range cpuSharePkgs {
		if p == pkg {
			return p
		}
	}
	return ""
}

// foldTop sums the flat column of `go tool pprof -top` output per layer
// and returns each layer's share of all samples.
func foldTop(top string) (map[string]float64, error) {
	share := map[string]float64{}
	for _, p := range cpuSharePkgs {
		share[p] = 0
	}
	var total float64
	header := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		v, err := parseSeconds(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		total += v
		if l := layerOf(strings.Join(f[5:], " ")); l != "" {
			share[l] += v
		}
	}
	if !header {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	if total > 0 {
		for k := range share {
			share[k] /= total
		}
	}
	return share, nil
}

// parseSeconds reads a pprof duration cell such as "1.25s" or "40ms".
func parseSeconds(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}
