// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed host time, checks every output it produced, and
// prints each metric by name and unit; the last line of standard output
// is a JSON summary:
//
//	perfbench --workload suite|assoc|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with no
// instrumentation. With --trace 1 it records spans around every public
// call it makes into the simulator and the daemon, profiles the CPU, and
// prints the per-layer metrics instead. NOTES.md explains the workloads,
// the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric the benchmark prints.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run. BENCHMARK.json lists the
// same names and units (TestCatalogueMatchesBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sims_per_s", "1/s"},
	{"sim_kcycles_per_s", "kcycles/s"},
	{"first_touch_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run; the prefix names the module.
var perLayer = []metricDef{
	{"sim.new_ms", "ms"},
	{"workloads.build_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"workloads.verify_ms", "ms"},
	{"energy.estimate_ms", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.result_get_ms_p50", "ms"},
	{"serve.stream_ms", "ms"},
	{"sim.host_ns_per_cycle", "ns"},
	{"cpu.engine", "%"},
	{"cpu.wpu", "%"},
	{"cpu.isa", "%"},
	{"cpu.mem", "%"},
	{"cpu.sim", "%"},
	{"cpu.program", "%"},
	{"cpu.workloads", "%"},
	{"cpu.report", "%"},
	{"cpu.serve", "%"},
	{"cpu.obs", "%"},
	{"cpu.gc", "%"},
	{"cpu.net", "%"},
	{"cpu.other", "%"},
	{"sim.cycles", "count"},
	{"wpu.issued", "count"},
	{"wpu.mean_width", "lanes"},
	{"wpu.busy_frac", "ratio"},
	{"wpu.stall_mem_frac", "ratio"},
	{"wpu.stall_wst_full", "cycles"},
	{"wpu.stall_slot_wait", "cycles"},
	{"mem.l1_accesses", "count"},
	{"mem.l1_miss_ratio", "ratio"},
	{"mem.l2_requests", "count"},
	{"mem.l2_miss_ratio", "ratio"},
	{"mem.dram_accesses", "count"},
	{"mem.xbar_transfers", "count"},
	{"report.sims_run", "count"},
	{"report.mem_hits", "count"},
	{"report.disk_hits", "count"},
	{"report.store_saves", "count"},
	{"report.avoidable_sims", "count"},
	{"serve.polls_per_job", "count"},
	{"serve.stream_frames", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// params are one invocation's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool   // reduced point sets, for the benchmark's own tests
	workDir  string // scratch space for stores and the span file
	out      io.Writer
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	correct           bool
	values            map[string]float64
}

// metric is one entry of the summary's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final JSON line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadRuns = map[string]func(params) (outcome, error){
	"suite": runSuite,
	"assoc": runAssoc,
	"serve": runServe,
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "suite, assoc or serve")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed (orders and picks serve's jobs)")
	flag.Float64Var(&p.seconds, "seconds", 30, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	p.workDir = filepath.Join(".bench_build", "work")
	p.trace = trace == 1
	p.out = os.Stdout
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if _, ok := workloadRuns[p.workload]; !ok || p.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --workload must be suite, assoc or serve, and --seconds positive")
		os.Exit(2)
	}
	s, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles the summary, printing the
// metric table to p.out on the way.
func run(p params) (summary, error) {
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		return summary{}, err
	}
	o, err := workloadRuns[p.workload](p)
	if err != nil {
		return summary{}, fmt.Errorf("%s: %w", p.workload, err)
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	s := summary{Correct: o.correct && o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metric, len(defs))}
	fmt.Fprintf(p.out, "%-26s %16s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return summary{}, fmt.Errorf("%s: metric %s was not measured", p.workload, d.name)
		}
		s.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(p.out, "%-26s %16.4f  %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(p.out, "attempted %d, failed %d, fail_ratio %.4f, correct %v\n",
		s.Attempted, s.Failed, float64(s.Failed)/float64(max(s.Attempted, 1)), s.Correct)
	return s, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// cpuTime is the process's CPU time so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocMeter measures host bytes allocated and GC activity over a phase.
type allocMeter struct{ before runtime.MemStats }

func startAllocMeter() *allocMeter {
	m := &allocMeter{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns bytes allocated, GC cycles and total GC pause since start.
func (m *allocMeter) stop() (bytes uint64, gcs uint32, pause time.Duration) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - m.before.TotalAlloc, after.NumGC - m.before.NumGC,
		time.Duration(after.PauseTotalNs - m.before.PauseTotalNs)
}
