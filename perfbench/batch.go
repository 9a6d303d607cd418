package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// point is one simulation point: a benchmark under a knob vector.
type point struct {
	bench string
	knobs report.Knobs
}

// suitePoints is the scheme comparison: every benchmark under every
// scheme on the Table 3 machine.
func suitePoints(short bool) []point {
	benches, schemes := report.BenchNames(), wpu.AllSchemes
	if short {
		benches, schemes = benches[:2], []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive}
	}
	var pts []point
	for _, b := range benches {
		for _, sc := range schemes {
			pts = append(pts, point{b, report.DefaultKnobs(sc)})
		}
	}
	return pts
}

// assocPoints are Figure 18's two fully-associative D-cache setups at
// 16 wide x 4 warps. With 128-byte lines, 32 KB is 256 ways and 256 KB is
// 2,048 ways.
func assocPoints(short bool) []point {
	benches := report.BenchNames()
	schemes := []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive, wpu.SchemeSlipBranchBypass}
	if short {
		benches, schemes = benches[:2], schemes[:1]
	}
	var pts []point
	for _, kb := range []int{32, 256} {
		for _, b := range benches {
			for _, sc := range schemes {
				k := report.DefaultKnobs(sc)
				k.L1KB, k.L1Assoc = kb, 0
				pts = append(pts, point{b, k})
			}
		}
	}
	return pts
}

func runSuite(p params) (outcome, error) { return runBatch(p, suitePoints(p.short)) }
func runAssoc(p params) (outcome, error) { return runBatch(p, assocPoints(p.short)) }

// pass is one sweep over a batch workload's points. Host time is
// process CPU time (user plus system, all threads): on a shared virtual
// machine, wall time also counts the time the hypervisor ran other
// guests, which swings by a fifth between passes of the same work.
type pass struct {
	wall    time.Duration
	cpu     time.Duration
	pointMs []float64 // host CPU time per point, ms
	results []report.Result
	cache   report.CacheStats
	failed  int
}

func (ps *pass) cycles() uint64 {
	var c uint64
	for _, r := range ps.results {
		c += r.Cycles
	}
	return c
}

// digest fingerprints every simulated Result of the pass in point order.
// Simulation is deterministic, so every pass of one commit agrees, and a
// change that leaves the model alone leaves the digest alone.
func (ps *pass) digest() string {
	h := sha256.New()
	for _, r := range ps.results {
		b, err := json.Marshal(r)
		if err != nil {
			panic(fmt.Sprintf("perfbench: marshal result: %v", err)) // Result is plain data
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sessionPass runs every point through a cold one-worker Session with
// functional verification on, as `dwsreport -j 1 -nocache` would.
func sessionPass(pts []point) pass {
	s := report.NewSession(report.WithJobs(1))
	s.Verify = true
	ps := pass{results: make([]report.Result, len(pts))}
	start, cpu0 := time.Now(), cpuTime()
	for i, pt := range pts {
		t0 := cpuTime()
		r, err := s.Run(pt.bench, pt.knobs)
		ps.pointMs = append(ps.pointMs, ms(cpuTime()-t0))
		if err != nil {
			ps.failed++
			continue
		}
		ps.results[i] = r
	}
	ps.wall, ps.cpu = time.Since(start), cpuTime()-cpu0
	ps.cache = s.Stats()
	return ps
}

// layeredPass runs every point by calling each layer's public entry
// point in turn, with a span around each call: the same composition a
// Session performs internally, so its results must match a sessionPass
// bit for bit.
func layeredPass(pts []point, rec *recorder, n int) pass {
	ps := pass{results: make([]report.Result, len(pts))}
	start, cpu0 := time.Now(), cpuTime()
	for i, pt := range pts {
		id := fmt.Sprintf("pass%d/%d", n, i)
		root := rec.begin("point", -1, id)
		r, err := runLayers(pt, rec, root, id)
		rec.end(root)
		if err != nil {
			ps.failed++
			continue
		}
		ps.results[i] = r
	}
	ps.wall, ps.cpu = time.Since(start), cpuTime()-cpu0
	return ps
}

func runLayers(pt point, rec *recorder, parent int, id string) (report.Result, error) {
	spec, err := workloads.ByNameScaled(pt.bench, max(pt.knobs.Scale, 1))
	if err != nil {
		return report.Result{}, err
	}
	sp := rec.begin("sim.new", parent, id)
	sys, err := sim.New(pt.knobs.Config())
	rec.end(sp)
	if err != nil {
		return report.Result{}, err
	}
	sp = rec.begin("workloads.build", parent, id)
	inst, err := spec.Build(sys)
	rec.end(sp)
	if err != nil {
		return report.Result{}, err
	}
	sp = rec.begin("sim.run", parent, id)
	err = inst.Run(sys)
	rec.end(sp)
	if err != nil {
		return report.Result{}, err
	}
	sp = rec.begin("workloads.verify", parent, id)
	err = inst.Verify()
	rec.end(sp)
	if err != nil {
		return report.Result{}, err
	}
	sp = rec.begin("energy.estimate", parent, id)
	e := energy.Estimate(sys)
	rec.end(sp)
	return report.Result{
		Bench: pt.bench, Scheme: pt.knobs.Scheme, Cycles: sys.Cycles(),
		Stats: sys.TotalStats(), L1: sys.L1Stats(), L2: sys.L2Stats(),
		XbarTransfers:  sys.Hier.Xbar.Transfers(),
		DRAMAccesses:   sys.Hier.DRAM.Accesses,
		DRAMWritebacks: sys.Hier.DRAM.WritebackN,
		Energy:         e,
	}, nil
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// loadBatch is the batch set-up: it builds each distinct benchmark once
// on the machine of the first point naming it (sim.New plus Spec.Build,
// which runs the program build and static analyses), the work that
// stands between a cold process and its first simulation.
func loadBatch(pts []point) error {
	seen := map[string]bool{}
	for _, pt := range pts {
		if seen[pt.bench] {
			continue
		}
		seen[pt.bench] = true
		spec, err := workloads.ByNameScaled(pt.bench, max(pt.knobs.Scale, 1))
		if err != nil {
			return err
		}
		sys, err := sim.New(pt.knobs.Config())
		if err != nil {
			return err
		}
		if _, err := spec.Build(sys); err != nil {
			return err
		}
	}
	return nil
}

// measureSetup runs setup setupReps times and returns the median host
// time in seconds, the first one counted from process start. between,
// when set, runs after each set-up but the last, outside the timing, and
// undoes it.
func measureSetup(setup func() error, between func()) (float64, error) {
	var xs []float64
	for i := 0; i < setupReps; i++ {
		var t0 time.Duration // process CPU time starts at zero
		if i > 0 {
			t0 = cpuTime()
		}
		if err := setup(); err != nil {
			return 0, err
		}
		xs = append(xs, (cpuTime() - t0).Seconds())
		if between != nil && i < setupReps-1 {
			between()
		}
	}
	return median(xs), nil
}

// keepGoing reports whether another pass fits: the run stops once
// elapsed time plus half a mean pass reaches the budget, so a run lasts
// about --seconds and always measures whole passes.
func keepGoing(start time.Time, passes int, seconds float64) bool {
	el := time.Since(start).Seconds()
	return passes == 0 || el+el/float64(passes)/2 < seconds
}

func runBatch(p params, pts []point) (outcome, error) {
	setup, err := measureSetup(func() error { return loadBatch(pts) }, nil)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	if p.trace {
		return runBatchTraced(p, pts)
	}
	var passes []pass
	meter := startAllocMeter()
	start := time.Now()
	for keepGoing(start, len(passes), p.seconds) {
		passes = append(passes, sessionPass(pts))
	}
	allocated, _, _ := meter.stop()

	o := outcome{values: map[string]float64{"setup_s": setup}}
	for i := range passes {
		o.attempted += len(pts)
		o.failed += passes[i].failed
	}
	o.correct = reportDigests(p, passes, passes[0].digest())
	// Each point's median over the passes discards a pass that a burst of
	// host contention slowed down; the workload is the sum of the points.
	perPoint := pointMedians(passes)
	var hostMs float64
	for _, x := range perPoint {
		hostMs += x
	}
	n := float64(len(passes))
	o.values["sims_per_s"] = float64(o.attempted-o.failed) / n / (hostMs / 1e3)
	o.values["jobs_per_s"] = float64(len(pts)) / (hostMs / 1e3)
	o.values["sim_kcycles_per_s"] = float64(passes[0].cycles()) / hostMs
	o.values["first_touch_s"] = hostMs / 1e3
	o.values["job_p50_ms"] = quantile(perPoint, 0.50)
	o.values["alloc_kb_per_op"] = float64(allocated) / 1024 / float64(o.attempted)
	o.values["peak_rss_mb"] = peakRSSMiB()
	fmt.Fprintf(p.out, "%s: %d points x %d passes; per-point medians sum to %.3f s of host CPU\n",
		p.workload, len(pts), len(passes), hostMs/1e3)
	fmt.Fprintf(p.out, "point host time over %d points: p50 %.3f ms, p99 %.3f ms\n",
		len(perPoint), quantile(perPoint, 0.5), quantile(perPoint, 0.99))
	return o, nil
}

// pointMedians returns each point's median host time over the passes.
func pointMedians(passes []pass) []float64 {
	out := make([]float64, len(passes[0].pointMs))
	xs := make([]float64, len(passes))
	for i := range out {
		for j := range passes {
			xs[j] = passes[j].pointMs[i]
		}
		out[i] = median(xs)
	}
	return out
}

// reportDigests prints each pass's times, cycle total and digest, and
// reports whether every digest equals want.
func reportDigests(p params, passes []pass, want string) bool {
	ok := true
	for i := range passes {
		ps := &passes[i]
		d := ps.digest()
		fmt.Fprintf(p.out, "pass %d: %.3f s host CPU, %.3f s wall, sim.cycles %d, digest %s\n",
			i, ps.cpu.Seconds(), ps.wall.Seconds(), ps.cycles(), d)
		ok = ok && d == want
	}
	if !ok {
		fmt.Fprintf(p.out, "digest mismatch: want %s in every pass\n", want)
	}
	return ok
}

// runBatchTraced measures the per-layer metrics: one untraced Session
// pass as the overhead reference, then layered passes with spans and the
// CPU profile on until the budget is spent.
func runBatchTraced(p params, pts []point) (outcome, error) {
	start := time.Now()
	ref := sessionPass(pts)
	rec := newRecorder()
	prof, err := startCPUProfile()
	if err != nil {
		return outcome{}, err
	}
	meter := startAllocMeter()
	var passes []pass
	for len(passes) == 0 || keepGoing(start, len(passes)+1, p.seconds) {
		passes = append(passes, layeredPass(pts, rec, len(passes)))
	}
	_, gcs, pause := meter.stop()
	shares, samples, err := prof.shares()
	if err != nil {
		return outcome{}, err
	}
	if err := rec.write(filepath.Join(p.workDir, "spans-"+p.workload+".jsonl")); err != nil {
		return outcome{}, err
	}

	o := outcome{values: shares}
	o.attempted = len(pts) * (len(passes) + 1)
	o.failed = ref.failed
	var cpus []float64
	for i := range passes {
		o.failed += passes[i].failed
		cpus = append(cpus, passes[i].cpu.Seconds())
	}
	fmt.Fprintf(p.out, "reference pass: %.3f s host CPU, digest %s\n", ref.cpu.Seconds(), ref.digest())
	o.correct = reportDigests(p, passes, ref.digest())
	n := float64(len(passes))
	last := &passes[len(passes)-1]
	v := o.values
	for _, name := range []string{"sim.new", "workloads.build", "sim.run", "workloads.verify", "energy.estimate"} {
		v[name+"_ms"] = meanOf(rec.durations(name))
	}
	var runMs float64
	for _, d := range rec.durations("sim.run") {
		runMs += d
	}
	v["sim.host_ns_per_cycle"] = runMs * 1e6 / (n * float64(last.cycles()))
	addSimCounts(v, last.results)
	v["report.sims_run"] = float64(ref.cache.Misses)
	v["report.mem_hits"] = float64(ref.cache.MemHits)
	v["report.disk_hits"] = float64(ref.cache.DiskHits)
	v["report.store_saves"] = 0
	v["report.avoidable_sims"] = 0
	for _, name := range []string{"serve.submit_ms_p50", "serve.result_get_ms_p50", "serve.stream_ms",
		"serve.polls_per_job", "serve.stream_frames"} {
		v[name] = 0
	}
	v["go.gc_cycles"] = float64(gcs) / n
	v["go.gc_pause_ms"] = ms(pause) / n
	v["bench.trace_overhead_pct"] = 100 * (median(cpus)/ref.cpu.Seconds() - 1)
	fmt.Fprintf(p.out, "%s traced: %d points x %d layered passes, %d sampled stacks covering %.1f %% of process CPU, %d spans\n",
		p.workload, len(pts), len(passes), samples, profiled(v), len(rec.spans))
	printLayerTable(p, rec, "point", "sim.new", "workloads.build", "sim.run", "workloads.verify", "energy.estimate")
	return o, nil
}

// addSimCounts sets the simulated-work metrics from one set of results.
func addSimCounts(v map[string]float64, rs []report.Result) {
	var st struct {
		cycles, issued, width, tick, busy, mem, wst, slot uint64
		l1acc, l1miss, l2req, l2miss, dram, xbar          uint64
	}
	for _, r := range rs {
		st.cycles += r.Cycles
		st.issued += r.Stats.Issued
		st.width += r.Stats.WidthAccum
		st.tick += r.Stats.TickCycles
		st.busy += r.Stats.BusyCycles
		st.mem += r.Stats.StallMemCoherent + r.Stats.StallMemDivergent
		st.wst += r.Stats.StallWSTFull
		st.slot += r.Stats.StallSlotWait
		st.l1acc += r.L1.Accesses
		st.l1miss += r.L1.Misses
		st.l2req += r.L2.Requests
		st.l2miss += r.L2.Misses
		st.dram += r.DRAMAccesses
		st.xbar += r.XbarTransfers
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	v["sim.cycles"] = float64(st.cycles)
	v["wpu.issued"] = float64(st.issued)
	v["wpu.mean_width"] = ratio(st.width, st.issued)
	v["wpu.busy_frac"] = ratio(st.busy, st.tick)
	v["wpu.stall_mem_frac"] = ratio(st.mem, st.tick)
	v["wpu.stall_wst_full"] = float64(st.wst)
	v["wpu.stall_slot_wait"] = float64(st.slot)
	v["mem.l1_accesses"] = float64(st.l1acc)
	v["mem.l1_miss_ratio"] = ratio(st.l1miss, st.l1acc)
	v["mem.l2_requests"] = float64(st.l2req)
	v["mem.l2_miss_ratio"] = ratio(st.l2miss, st.l2req)
	v["mem.dram_accesses"] = float64(st.dram)
	v["mem.xbar_transfers"] = float64(st.xbar)
}

// printLayerTable prints each span name's call count, mean and total
// time, and its share of the time under the root spans (points or jobs).
func printLayerTable(p params, rec *recorder, root string, names ...string) {
	total := func(d []float64) float64 { return meanOf(d) * float64(len(d)) / 1e3 }
	rootS := total(rec.durations(root))
	fmt.Fprintf(p.out, "%-20s %8s %10s %10s %7s\n", "span", "calls", "mean_ms", "total_s", "share")
	for _, name := range append([]string{root}, names...) {
		d := rec.durations(name)
		fmt.Fprintf(p.out, "%-20s %8d %10.4f %10.3f %6.1f%%\n", name, len(d), meanOf(d), total(d), 100*total(d)/rootS)
	}
}
