// Command perfbench is the repository's benchmark: three workloads that
// time Step 1 (lifting), Step 2 (re-proving exported graphs) and
// incremental re-lifting against the Hoare-graph store, each in a fresh
// process, with a separate traced run for the per-layer breakdown.
//
//	perfbench --workload lib_cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Every metric is also
// printed on its own line, by name and unit, above it. README.md records
// why the workloads and metrics are what they are.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the lifter sees, reported with
// --trace 0. failed_ratio is printed but kept out of the JSON result: it is
// 0 on a healthy run, and the result's "failed" count carries it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"cpu_ms_per_unit", "ms"},
	{"unit_p50_ms", "ms"},
	{"unit_p90_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"decided_ratio", "ratio"},
	{"correct_ratio", "ratio"},
}

// perLayer are the single-layer metrics, reported with --trace 1. Counts
// and times are per pass over the workload's corpus (lib_cold makes one
// pass; see README.md).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.lift_s", "s"},
		{"core.states", "count"},
		{"core.joins", "count"},
		{"solver.queries", "count"},
		{"solver.hit_ratio", "ratio"},
		{"memmodel.forks", "count"},
		{"memmodel.destroys", "count"},
		{"memmodel.fallbacks", "count"},
		{"expr.intern_entries", "count"},
		{"expr.intern_hit_ratio", "ratio"},
		{"pipeline.sched_ms", "ms"},
		{"triple.check_ms_p50", "ms"},
		{"triple.check_ms_p90", "ms"},
		{"triple.theorems", "count"},
		{"triple.proven", "count"},
		{"triple.assumed", "count"},
		{"hgstore.load_graph_ms", "ms"},
		{"hgstore.hits", "count"},
		{"hgstore.misses", "count"},
		{"hgstore.decode_ms_p50", "ms"},
		{"hgstore.flush_s", "s"},
		{"hgstore.container_mb", "MB"},
		{"ptr.analyze_ms_per_unit", "ms"},
		{"cgen.compile_s", "s"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_ratio", "ratio"},
		{"runtime.heap_peak_mb", "MB"},
		{"trace.cpu_overhead_ratio", "ratio"},
		{"trace.wall_overhead_ratio", "ratio"},
	}
	for _, p := range cpuSharePkgs {
		defs = append(defs, metricDef{"cpu_share." + p, "ratio"})
	}
	return defs
}()

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool
	nproc    int
	workdir  string
	out      io.Writer
	sp       *spans
	metrics  *obs.Metrics // traced run only
}

// outcome is what a workload measured.
type outcome struct {
	setups     []time.Duration
	compile    time.Duration // corpus generation and compilation, last set-up
	unitMS     []float64     // per-unit wall latency in the timed phase
	attempted  int
	decided    int
	correct    int
	failed     int
	mismatches []string // verdicts differing from the reference
	tolerated  int      // of which: the generator's known timeout mislabel
	start      snapshot
	stop       snapshot
	passMS     []float64 // wall time of each pass
	passEnds   []int     // where each pass's samples end in unitMS
	layer      map[string]float64
}

// endPass records the end of one pass of the timed phase.
func (o *outcome) endPass() {
	var done float64
	for _, p := range o.passMS {
		done += p
	}
	o.passMS = append(o.passMS, ms(time.Since(o.start.wall))-done)
	o.passEnds = append(o.passEnds, len(o.unitMS))
}

// unitQuantile is the median over passes of each pass's q-quantile of unit
// latency, so a burst of host contention in one pass moves it little. It
// also returns the fewest samples beyond the quantile in any pass.
func (o *outcome) unitQuantile(q float64) (float64, int) {
	vals := make([]float64, 0, len(o.passEnds))
	fewest, start := len(o.unitMS), 0
	for _, end := range o.passEnds {
		v, beyond := quantile(o.unitMS[start:end], q)
		vals = append(vals, v)
		fewest = min(fewest, beyond)
		start = end
	}
	return median(vals), fewest
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *config) (*outcome, error){
	"lib_cold":        libCold,
	"coreutils_prove": coreutilsProve,
	"lowlevel_edit":   lowlevelEdit,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark invocation and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: lib_cold, coreutils_prove or lowlevel_edit")
	seed := fs.Int64("seed", 1, "workload seed (proof order, edit sequence)")
	seconds := fs.Float64("seconds", 10, "length of the coreutils_prove timed phase")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead")
	tiny := fs.Bool("tiny", false, "small corpora and a fixed pass count (the self-test)")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "work directory for stores, profiles and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload lib_cold|coreutils_prove|lowlevel_edit, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		tiny: *tiny, nproc: nproc, workdir: *workdir}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	cfg.out = out
	printEnv(out, cfg)

	var untraced map[string]float64
	if cfg.traced {
		// Tracing overhead is the traced run's difference from the
		// untraced runs of the same build.
		var n int
		var err error
		if untraced, n, err = untracedReference(cfg, args); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: untraced reference: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "# tracing overhead measured against the median of %d untraced run(s)\n", n)
		runID := fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano())
		cfg.sp = newSpans(runID)
		cfg.metrics = obs.NewMetrics()
	}

	o, err := drive(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	vals, err := endToEndValues(o, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(out, "# pass walls (ms):")
	for _, p := range o.passMS {
		fmt.Fprintf(out, " %.0f", p)
	}
	fmt.Fprintln(out)
	for _, m := range o.mismatches {
		fmt.Fprintf(out, "mismatch %s\n", m)
	}
	failedRatio := float64(o.failed) / float64(o.attempted)
	fmt.Fprintf(out, "metric %-26s %.6g %s (%d of %d units)\n", "failed_ratio", failedRatio, "ratio", o.failed, o.attempted)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "metric %-26s %.6g %s%s\n", d.name, vals[d.name], d.unit, note(o, d.name))
	}
	if cfg.traced {
		err = finishTrace(cfg, o, vals, untraced)
	} else {
		err = logUntraced(cfg, vals)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, d := range perLayer {
		if _, ok := o.layer[d.name]; !ok && !cfg.traced {
			continue // traced-run-only metric
		}
		fmt.Fprintf(out, "metric %-26s %.6g %s\n", d.name, o.layer[d.name], d.unit)
	}

	correct := o.failed == 0 && len(o.mismatches) == o.tolerated
	res := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]metricResult `json:"metrics"`
	}{correct, o.attempted, o.failed, map[string]metricResult{}}
	defs, src := endToEnd, vals
	if cfg.traced {
		defs, src = perLayer, o.layer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricResult{src[d.name], d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printEnv prints the environment header.
func printEnv(w io.Writer, cfg *config) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v tiny=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, cfg.tiny)
	fmt.Fprintf(w, "# cpu=%q nproc=%d GOMAXPROCS=%d go=%s GOGC=%s\n",
		cpuModel(), cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), gogc)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// endToEndValues derives the end-to-end metrics. A percentile without
// minBeyond samples above it fails the run, except in the tiny self-test
// mode, where it is printed as indicative only.
func endToEndValues(o *outcome, cfg *config) (map[string]float64, error) {
	if o.attempted == 0 {
		return nil, fmt.Errorf("no units attempted")
	}
	wall := o.stop.wall.Sub(o.start.wall)
	cpu := o.stop.cpu - o.start.cpu
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	p50, _ := o.unitQuantile(0.5)
	p90, beyond := o.unitQuantile(0.9)
	if beyond < minBeyond && !cfg.tiny {
		return nil, fmt.Errorf("%d unit samples in %d passes: too few for p90 with %d beyond it in every pass",
			len(o.unitMS), len(o.passEnds), minBeyond)
	}
	return map[string]float64{
		"setup_s":         median(setups),
		"units_per_s":     float64(o.attempted) / wall.Seconds(),
		"cpu_ms_per_unit": ms(cpu) / float64(o.attempted),
		"unit_p50_ms":     p50,
		"unit_p90_ms":     p90,
		"alloc_mb":        float64(o.stop.alloc-o.start.alloc) / (1 << 20) / float64(len(o.passMS)),
		"peak_rss_mb":     peakRSSMB(),
		"decided_ratio":   float64(o.decided) / float64(o.attempted),
		"correct_ratio":   float64(o.correct) / float64(o.attempted),
	}, nil
}

// note explains how a printed end-to-end figure was taken.
func note(o *outcome, name string) string {
	switch name {
	case "setup_s":
		parts := make([]string, len(o.setups))
		for i, d := range o.setups {
			parts[i] = fmt.Sprintf("%.3g", d.Seconds())
		}
		return fmt.Sprintf(" (median of %d set-ups: %s)", len(o.setups), strings.Join(parts, " "))
	case "unit_p50_ms", "unit_p90_ms":
		q := 0.5
		if name == "unit_p90_ms" {
			q = 0.9
		}
		_, beyond := o.unitQuantile(q)
		s := fmt.Sprintf(" (median of %d passes; n=%d, at least %d beyond in each pass)", len(o.passEnds), len(o.unitMS), beyond)
		if beyond < minBeyond {
			s += " indicative only: fewer than 10 samples beyond"
		}
		return s
	case "alloc_mb":
		return fmt.Sprintf(" (per pass, %d passes)", len(o.passMS))
	case "correct_ratio":
		if o.tolerated > 0 {
			return fmt.Sprintf(" (%d known generator mislabel(s) counted against it)", o.tolerated)
		}
	}
	return ""
}

// untracedLog is the file where untraced runs of this build of the
// benchmark append their end-to-end metrics, one JSON object per line.
func untracedLog(cfg *config) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return filepath.Join(cfg.workdir, fmt.Sprintf("untraced-%s-%x.jsonl", cfg.workload, sum[:8])), nil
}

// logUntraced appends an untraced run's end-to-end metrics to the log.
func logUntraced(cfg *config, vals map[string]float64) error {
	path, err := untracedLog(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(vals)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// untracedReference returns the median end-to-end metrics of the untraced
// runs this build has logged for the workload. With none logged, it first
// runs this invocation untraced in a fresh child process.
func untracedReference(cfg *config, args []string) (map[string]float64, int, error) {
	path, err := untracedLog(cfg)
	if err != nil {
		return nil, 0, err
	}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		exe, err := os.Executable()
		if err != nil {
			return nil, 0, err
		}
		cmd := exec.Command(exe, append(args, "--trace", "0")...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, 0, fmt.Errorf("untraced child run: %w", err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	runs := map[string][]float64{}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, l := range lines {
		var vals map[string]float64
		if err := json.Unmarshal([]byte(l), &vals); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		for k, v := range vals {
			runs[k] = append(runs[k], v)
		}
	}
	ref := map[string]float64{}
	for k, v := range runs {
		ref[k] = median(v)
	}
	return ref, len(lines), nil
}

// finishTrace completes the traced run's per-layer metrics: CPU shares
// from the profile, the tracing overhead against the untraced reference, and
// the spans and metrics registry written to the work directory.
func finishTrace(cfg *config, o *outcome, vals, untraced map[string]float64) error {
	prof := filepath.Join(cfg.workdir, cfg.workload+".cpu.pprof")
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", prof).Output()
	if err != nil {
		return fmt.Errorf("trace: go tool pprof: %w", err)
	}
	share, err := foldTop(string(top))
	if err != nil {
		return err
	}
	for p, v := range share {
		o.layer["cpu_share."+p] = v
	}
	if u := untraced["cpu_ms_per_unit"]; u > 0 {
		o.layer["trace.cpu_overhead_ratio"] = vals["cpu_ms_per_unit"]/u - 1
	}
	if u := untraced["units_per_s"]; u > 0 {
		o.layer["trace.wall_overhead_ratio"] = u/vals["units_per_s"] - 1
	}
	base := filepath.Join(cfg.workdir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := cfg.sp.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	return os.WriteFile(base+".metrics.txt", []byte(cfg.metrics.Dump()), 0o644)
}

// startProfile starts the traced run's CPU profile of the timed phase; the
// returned function stops it.
func startProfile(cfg *config) (func() error, error) {
	if !cfg.traced {
		return func() error { return nil }, nil
	}
	f, err := os.Create(filepath.Join(cfg.workdir, cfg.workload+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// timedPhase brackets a workload's timed phase: it snapshots the process
// counters and intern table, starts the traced run's profile and heap
// sampler, and returns the function that stops them and fills the
// outcome's runtime and expr layer metrics.
func timedPhase(cfg *config, o *outcome) (func() error, error) {
	stopProf, err := startProfile(cfg)
	if err != nil {
		return nil, err
	}
	var heap *heapSampler
	if cfg.traced {
		heap = startHeapSampler()
	}
	it0 := expr.TableStats()
	runtime.GC()
	o.start = takeSnapshot()
	return func() error {
		o.stop = takeSnapshot()
		it1 := expr.TableStats()
		if err := stopProf(); err != nil {
			return err
		}
		passes := float64(len(o.passMS))
		o.layer["runtime.gc_cycles"] = float64(o.stop.numGC-o.start.numGC) / passes
		if d := o.stop.allCPU - o.start.allCPU; d > 0 {
			o.layer["runtime.gc_cpu_ratio"] = (o.stop.gcCPU - o.start.gcCPU) / d
		}
		if heap != nil {
			o.layer["runtime.heap_peak_mb"] = heap.peakMB()
		}
		o.layer["expr.intern_entries"] = float64(it1.Entries)
		if calls := (it1.Hits + it1.Misses) - (it0.Hits + it0.Misses); calls > 0 {
			o.layer["expr.intern_hit_ratio"] = float64(it1.Hits-it0.Hits) / float64(calls)
		}
		return nil
	}, nil
}

// setupTimes returns the number of set-ups a run measures: one in the
// traced run, else several, so setup_s is a median.
func setupTimes(cfg *config, n int) int {
	if cfg.traced {
		return 1
	}
	return n
}
