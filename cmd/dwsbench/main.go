// dwsbench is the CI benchmark gate. It runs the event-engine
// micro-benchmarks (BenchmarkEngineSteadyState: timing wheel, closure
// path, and the retired heap queue kept as a reference), the execution
// and memory fast paths (BenchmarkStoreLookup among them), the
// end-to-end BenchmarkFullReportShort (Table 1 from a cold session), and
// the observability pins
// (BenchmarkHistRecord's zero-alloc record path, BenchmarkObsOverhead's
// disabled-hook cost), and the static-analysis budgets
// (BenchmarkProgramBuild, BenchmarkCostModel), parses ns/op and
// allocs/op, and compares them against the checked-in
// BENCH_baseline.json.
//
// Gating rules, both with a relative tolerance (default 10%; IO-bound
// benchmarks carry wider per-name overrides, see tolOverrides):
//   - ns/op is wall time and noisy, so the minimum across -count runs is
//     compared — that filters scheduler noise;
//   - allocs/op is effectively deterministic; a zero baseline (the
//     engine's allocation-free steady state) fails on ANY alloc, and a
//     nonzero baseline on anything beyond the tolerance.
//
// Usage:
//
//	dwsbench                 # compare against BENCH_baseline.json
//	dwsbench -update         # re-measure and rewrite the baseline
//	dwsbench -tolerance 0.25 # loosen the gate (e.g. noisy shared CI)
//
// Makefile wiring: `make bench-check` (part of `make ci`) and
// `make bench-baseline`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measured cost.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Baseline is the checked-in snapshot dwsbench compares against.
type Baseline struct {
	Note       string            `json:"note"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline file to compare against / update")
		update       = flag.Bool("update", false, "re-measure and rewrite the baseline instead of gating")
		tolerance    = flag.Float64("tolerance", 0.10, "allowed relative ns/op or allocs/op regression before failing")
	)
	flag.Parse()

	got := map[string]Result{}
	for _, s := range suites {
		if err := measure(s, got); err != nil {
			fmt.Fprintln(os.Stderr, "dwsbench:", err)
			os.Exit(1)
		}
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "dwsbench: no benchmark results parsed")
		os.Exit(1)
	}

	if *update {
		if err := writeBaseline(*baselinePath, got); err != nil {
			fmt.Fprintln(os.Stderr, "dwsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("dwsbench: wrote %s (%d benchmarks)\n", *baselinePath, len(got))
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwsbench: %v (run `make bench-baseline` to create it)\n", err)
		os.Exit(1)
	}
	if failures := compare(base, got, *tolerance); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "dwsbench: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("dwsbench: %d benchmarks within tolerance (%.0f%% ns/op, no new allocs)\n",
		len(base.Benchmarks), *tolerance*100)
}

// suite is one `go test -bench` invocation of the gate. Iteration counts
// are pinned (NNx benchtimes) so runs stay comparable across hosts and
// baseline refreshes.
type suite struct {
	pkg       string
	bench     string
	benchtime string
	count     int
}

var suites = []suite{
	// The tentpole micro-benchmarks: wheel vs closure path vs retired heap.
	{pkg: "./internal/engine", bench: "^BenchmarkEngineSteadyState$", benchtime: "1000000x", count: 5},
	// Execution-core fast paths: pre-decoded issue + SoA ALU lane loops,
	// and the map-free memory paths (tiered page lookup, MSHR table, the
	// cache tag lookup at the 8-way and Figure 18's fully-associative
	// geometries) with their zero allocs/op pins.
	{pkg: "./internal/wpu", bench: "^BenchmarkIssueALU$", benchtime: "200x", count: 5},
	{pkg: "./internal/mem", bench: "^BenchmarkFuncMemReadWrite$|^BenchmarkMSHRLookup$|^BenchmarkStoreLookup$", benchtime: "2000000x", count: 5},
	// End-to-end: Table 1 cold (eight full simulations, every kernel).
	{pkg: ".", bench: "^BenchmarkFullReportShort$", benchtime: "1x", count: 3},
	// Observability: the histogram record path must stay allocation-free
	// (a zero alloc baseline fails on any alloc), and the obs hooks must
	// stay invisible when disabled — ObsOverhead/off is the production
	// path (nil sink), ObsOverhead/on the opt-in tracing cost; both are
	// held by the ratio gates in relGates below on top of the absolute
	// gate. ObsOverhead amortises two KMeans runs per sample and takes
	// the minimum of seven reps for a tighter wall-clock floor than the
	// one-shot macro-benchmarks.
	{pkg: "./internal/obs", bench: "^BenchmarkHistRecord$", benchtime: "2000000x", count: 5},
	{pkg: ".", bench: "^BenchmarkObsOverhead$", benchtime: "2x", count: 7},
	// Sharded result store under parallel clients: the sharded/single pair
	// measures the same workload over 16 shards vs one global lock, and
	// the relGate below keeps the sharding advantage from silently
	// regressing to a single-mutex store. The store is IO-bound (atomic
	// temp+rename persists under contention), so it needs more reps than
	// the in-memory benchmarks for a stable minimum — and even then its
	// absolute ns/op is the noisiest in the gate, hence the tolOverrides
	// entries below; the ratio gate is the real instrument here.
	{pkg: "./internal/report", bench: "^BenchmarkStoreShardedParallel$", benchtime: "1500x", count: 7},
	// Program-build budget: every static analysis (divergence dataflow,
	// memory-access classification, verification) runs inside Build, so
	// kernel construction cost is where analysis additions would creep.
	// The default tolerance holds it to <=10% over baseline.
	{pkg: "./internal/program", bench: "^BenchmarkProgramBuild$", benchtime: "2000x", count: 5},
	// Cost-model budget: CostModelFor on the suite's largest kernel
	// (KMeans assign at 256 threads) — trip counts, block execs, issue
	// and tick bounds. Gated so the interval analyses stay cheap enough
	// to run inside every Build.
	{pkg: "./internal/workloads", bench: "^BenchmarkCostModel$", benchtime: "2000x", count: 5},
}

// relGate pins the ratio of two benchmarks measured in the same gate run
// against the baseline's ratio. Absolute ns/op swings with host load and
// frequency scaling, but both sides of a ratio swing together, so this
// holds a much tighter bar than the absolute gate can.
type relGate struct {
	name string  // numerator benchmark
	ref  string  // denominator benchmark
	tol  float64 // allowed relative growth of the ratio
}

// The obs overhead gates. The acceptance bar — hooks compiled in but
// disabled cost < 2% (EXPERIMENTS.md) — is asserted at re-baseline time
// on an idle machine; in CI these ratios catch the regression classes
// that matter while surviving shared-host noise bursts: an emission site
// that loses its enabled-check in a hot path (see the dwslint obsguard
// rule) costs tens of percent on ObsOverhead/off, and any allocation it
// makes trips the deterministic allocs/op gate above outright.
var relGates = []relGate{
	{name: "ObsOverhead/off", ref: "FullReportShort", tol: 0.10},
	{name: "ObsOverhead/on", ref: "ObsOverhead/off", tol: 0.10},
	// The store-sharding speedup: sharded must stay well under the
	// single-lock time for the same parallel workload. If per-shard
	// locking degrades to effectively global (a lock hoisted out of the
	// shard, a shared map reintroduced), this ratio roughly doubles
	// (+150% on the measured ~0.4 baseline) and trips long before the
	// absolute gate notices. The 40% tolerance absorbs the IO-driven
	// scatter both sides show on a loaded 1-core host while staying far
	// below that failure signature.
	{name: "StoreShardedParallel/sharded", ref: "StoreShardedParallel/single", tol: 0.40},
	// The wide-store tag index: a 2,048-way lookup costs about what an
	// 8-way scan does (baseline ratio 0.78). A wide store that falls back to
	// scanning every way multiplies the ratio about 100-fold; the 50%
	// tolerance absorbs the two few-nanosecond timings' scatter.
	{name: "StoreLookup/2048way", ref: "StoreLookup/8way", tol: 0.50},
}

// tolOverrides widens the absolute ns/op gate for benchmarks whose
// floor is set by the filesystem rather than the CPU: min-of-count
// filters scheduler noise but not write-back and rename latency, so the
// store pair scatters ±25% run-to-run where the compute benchmarks hold
// a few percent. The effective tolerance is max(flag, override), and
// the sharded-vs-single relGate above still pins the property the pair
// exists to protect.
var tolOverrides = map[string]float64{
	"StoreShardedParallel/sharded": 0.45,
	"StoreShardedParallel/single":  0.45,
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.:
//
//	BenchmarkEngineSteadyState/wheel-8   1000000   17.30 ns/op   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op.*\s([0-9]+) allocs/op`)

// measure runs one suite and folds -count repetitions into one Result per
// benchmark: minimum ns/op (noise filter), maximum allocs/op
// (conservative — they should barely vary at all).
func measure(s suite, got map[string]Result) error {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", s.bench,
		"-benchtime", s.benchtime,
		"-count", strconv.Itoa(s.count),
		"-benchmem",
		s.pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go test -bench %s: %v\n%s", s.bench, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := normalize(m[1])
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("parse ns/op in %q: %v", line, err)
		}
		allocs, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return fmt.Errorf("parse allocs/op in %q: %v", line, err)
		}
		r, seen := got[name]
		if !seen || ns < r.NsPerOp {
			r.NsPerOp = ns
		}
		if allocs > r.AllocsPerOp {
			r.AllocsPerOp = allocs
		}
		got[name] = r
	}
	return nil
}

// normalize strips the "Benchmark" prefix and the trailing -GOMAXPROCS
// suffix so baselines do not depend on the host's processor count.
func normalize(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// compare returns a description of every gate violation: a missing or
// extra benchmark, any allocs/op increase, or a ns/op regression beyond
// the tolerance.
func compare(base Baseline, got map[string]Result, tol float64) []string {
	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		g, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured (benchmark renamed or deleted?)", name))
			continue
		}
		tol := tol
		if o, ok := tolOverrides[name]; ok && o > tol {
			tol = o
		}
		// A zero alloc baseline fails on any alloc at all: the engine's
		// allocation-free steady state must not erode by "just one".
		if float64(g.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol) {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, baseline %d — allocation regression",
				name, g.AllocsPerOp, b.AllocsPerOp))
		}
		if limit := b.NsPerOp * (1 + tol); g.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.2f ns/op, baseline %.2f (+%.1f%% > %.0f%% tolerance)",
				name, g.NsPerOp, b.NsPerOp, 100*(g.NsPerOp/b.NsPerOp-1), tol*100))
		} else if g.NsPerOp < b.NsPerOp*(1-tol) {
			fmt.Printf("dwsbench: note: %s improved to %.2f ns/op (baseline %.2f) — consider `make bench-baseline`\n",
				name, g.NsPerOp, b.NsPerOp)
		}
	}
	for name := range got {
		if _, ok := base.Benchmarks[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: measured but missing from baseline — run `make bench-baseline`", name))
		}
	}
	for _, rg := range relGates {
		bn, bok := base.Benchmarks[rg.name]
		br, rok := base.Benchmarks[rg.ref]
		gn, gnok := got[rg.name]
		gr, grok := got[rg.ref]
		if !bok || !rok || !gnok || !grok || br.NsPerOp == 0 || gr.NsPerOp == 0 {
			continue // a missing benchmark is already reported above
		}
		baseRatio := bn.NsPerOp / br.NsPerOp
		gotRatio := gn.NsPerOp / gr.NsPerOp
		if gotRatio > baseRatio*(1+rg.tol) {
			failures = append(failures, fmt.Sprintf("%s/%s ratio %.3f, baseline %.3f (+%.1f%% > %.0f%% tolerance)",
				rg.name, rg.ref, gotRatio, baseRatio, 100*(gotRatio/baseRatio-1), rg.tol*100))
		}
	}
	return failures
}

func readBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %v", path, err)
	}
	return b, nil
}

func writeBaseline(path string, got map[string]Result) error {
	b := Baseline{
		Note:       "min ns/op over pinned-iteration repetitions (see suites in cmd/dwsbench); refresh with `make bench-baseline` on an idle machine",
		Benchmarks: got,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
