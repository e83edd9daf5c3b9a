// Command perfbench is the repository's end-to-end benchmark.  It drives
// one workload through the system's public entry points, checks the
// outputs, and prints every metric by name with its unit and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve|emul-fleet|siting --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json.  With --trace 1 the workload runs twice, untraced and
// then traced: spans around every call into a layer are kept in memory and
// written to <workdir>/spans-<workload>-<seed>.jsonl, a CPU profile is folded
// into per-module shares, the tracing overhead is printed as traced minus
// untraced end-to-end metrics, and the metrics are the per-layer metrics.
// A failed output check prints its reason, reports "correct": false and
// exits with status 1.  See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metric is one measured value with its unit and the number of samples
// behind it (0 for a value that is not a statistic over samples).
type metric struct {
	value float64
	unit  string
	n     int
}

// report is what one run of a workload measured.
type report struct {
	metrics   map[string]metric // end-to-end, by the names README.md uses
	layers    map[string]metric // per-layer (traced runs only)
	attempted int
	failed    int
	checks    []string // failed output checks
	sum       []string // derived lines printed after the metrics
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), layers: make(map[string]metric)}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{v, unit, n}
}

func (r *report) layer(name string, v float64, unit string, n int) {
	r.layers[name] = metric{v, unit, n}
}

// failCheck records a failed output check; it counts as a failed operation.
func (r *report) failCheck(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.checks = append(r.checks, msg)
	r.failed++
	r.attempted++
	fmt.Fprintln(os.Stderr, "CHECK FAILED:", msg)
}

// runCtx is what a workload needs to run.
type runCtx struct {
	seed    int64
	seconds float64
	dir     string  // scratch directory for this run
	tr      *tracer // nil when untraced
}

// workload is one benchmark workload.
type workload struct {
	run func(rc *runCtx) (*report, error)
	// gated maps each end-to-end metric of BENCHMARK.json to the
	// workload's metric it reports.
	gated map[string]string
}

var workloads = map[string]workload{
	"serve":      {runServe, serveGated},
	"emul-fleet": {runFleet, fleetGated},
	"siting":     {runSiting, sitingGated},
}

// layerMetrics is every per-layer metric of BENCHMARK.json with its unit.
// A workload that never calls into a layer reports its metrics as 0.
var layerMetrics = func() map[string]string {
	m := map[string]string{
		"plan.tick_ms":            "ms",
		"plan.read_ms":            "ms",
		"plan.whatif_session_ms":  "ms",
		"plan.whatif_oneshot_ms":  "ms",
		"plan.client_overhead_ms": "ms",
		"plan.persist_ms":         "ms",
		"plan.snapshot_kb":        "KB",
		"emul.step_ms":            "ms",
		"emul.execute_ms":         "ms",
		"emul.migrations":         "count",
		"emul.migrated_mb":        "MB",
		"sched.round_ms":          "ms",
		"sched.degraded":          "count",
		"lp.pivots":               "count",
		"lp.bound_flips":          "count",
		"lp.refactorizations":     "count",
		"lp.presolve_ms":          "ms",
		"lp.rows_removed":         "count",
		"lp.cold_fallbacks":       "count",
		"runtime.alloc_kb":        "KB",
		"runtime.alloc_mb":        "MB",
		"runtime.gc_cpu_share":    "ratio",
		"core.filter_ms":          "ms",
		"core.anneal_ms":          "ms",
		"core.evaluate_us":        "us",
		"core.exact_ms":           "ms",
		"milp.nodes":              "count",
	}
	for _, mod := range cpuModules {
		m["cpu."+mod+"_share"] = "ratio"
	}
	return m
}()

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: serve, emul-fleet or siting")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for run files")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve|emul-fleet|siting --seed N --seconds S --trace 0|1")
		return 2
	}
	printHost()
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{seed: *seed, seconds: *seconds, dir: dir}

	fmt.Printf("workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *trace)
	steal0, total0 := cpuSteal()
	base, err := w.run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport("untraced", base)
	out := base
	var result map[string]metric
	if *trace == 0 {
		result = make(map[string]metric)
		for gated, named := range w.gated {
			m, ok := base.metrics[named]
			if !ok {
				base.failCheck("workload did not report %s", named)
				continue
			}
			result[gated] = m
		}
	} else {
		traced, err := runTraced(w, rc, *workdir, *name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printReport("traced", traced)
		printOverhead(base, traced)
		result = make(map[string]metric)
		for name, unit := range layerMetrics {
			m, ok := traced.layers[name]
			if !ok {
				m = metric{0, unit, 0}
			}
			result[name] = m
		}
		printLayers(result)
		out = &report{attempted: base.attempted + traced.attempted, failed: base.failed + traced.failed,
			checks: append(base.checks, traced.checks...)}
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		fmt.Printf("host: %.1f%% of CPU time was stolen by other guests during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err := emit(out, result); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(out.checks) > 0 {
		return 1
	}
	return 0
}

// runTraced runs the workload again with spans and a CPU profile.
func runTraced(w workload, rc *runCtx, workdir, name string) (*report, error) {
	traced := *rc
	traced.tr = newTracer()
	prof, err := startCPUProfile(filepath.Join(workdir, fmt.Sprintf("cpu-%s-%d.pprof", name, rc.seed)))
	if err != nil {
		return nil, err
	}
	rep, err := w.run(&traced)
	shares, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	for mod, share := range shares {
		rep.layer("cpu."+mod+"_share", share, "ratio", 0)
	}
	if err := traced.tr.writeJSONL(filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", name, rc.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

func printHost() {
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
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printReport(phase string, r *report) {
	for _, k := range sortedKeys(r.metrics) {
		m := r.metrics[k]
		fmt.Printf("%s metric %-22s %14.6g %-6s n=%d\n", phase, k, m.value, m.unit, m.n)
	}
	for _, line := range r.sum {
		fmt.Printf("%s %s\n", phase, line)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%s error_rate %.6g (failed %d / attempted %d)\n", phase, rate, r.failed, r.attempted)
}

// printOverhead prints the tracing overhead: traced minus untraced, for
// every end-to-end metric both runs measured.
func printOverhead(base, traced *report) {
	for _, k := range sortedKeys(base.metrics) {
		b, t := base.metrics[k], traced.metrics[k]
		if _, ok := traced.metrics[k]; !ok {
			continue
		}
		fmt.Printf("trace overhead %-22s %+12.6g %s (%+.1f%%)\n", k, t.value-b.value, b.unit,
			100*(t.value-b.value)/math.Max(math.Abs(b.value), 1e-12))
	}
}

func printLayers(layers map[string]metric) {
	for _, k := range sortedKeys(layers) {
		m := layers[k]
		fmt.Printf("layer %-26s %14.6g %-6s n=%d\n", k, m.value, m.unit, m.n)
	}
}

// emit prints the result object as the last line of standard output.
func emit(r *report, result map[string]metric) error {
	type jsonMetric struct {
		Value json.Number `json:"value"`
		Unit  string      `json:"unit"`
	}
	obj := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(r.checks) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for name, m := range result {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", name, m.value)
		}
		obj.Metrics[name] = jsonMetric{json.Number(strconv.FormatFloat(m.value, 'g', -1, 64)), m.unit}
	}
	if obj.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runtimeSample reads the process-wide counters the runtime.* layer
// metrics are computed from.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// gcShare is the share of CPU time spent in the garbage collector between
// two samples.
func gcShare(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// cpuSteal returns the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros when unavailable).
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set size so far (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
