// dwsim runs one benchmark under one configuration and prints the
// statistics the paper's evaluation is built from. Runs go through the
// report.Session executor, so they hit the shared on-disk result store
// and, with -bench all, simulate concurrently under -j.
//
// Usage:
//
//	dwsim -bench Merge -scheme DWS.ReviveSplit
//	dwsim -bench FFT -scheme Conv -width 8 -warps 8 -l1kb 64
//	dwsim -bench all -j 8 -nocache
//	dwsim -bench KMeans -trace trace.json -timeline timeline.csv -stats stats.json
//
// -trace/-timeline attach the observability sink (single benchmark only)
// and force a live simulation, bypassing the result caches; -stats writes
// machine-readable run metrics for any run.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

func main() {
	var (
		benchName = flag.String("bench", "Merge", "benchmark: FFT, Filter, HotSpot, LU, Merge, Short, KMeans, SVM, or 'all'")
		scheme    = flag.String("scheme", "DWS.ReviveSplit", "scheme: "+schemeList())
		wpus      = flag.Int("wpus", 4, "number of WPUs")
		width     = flag.Int("width", 16, "SIMD width")
		warps     = flag.Int("warps", 4, "warps per WPU")
		slots     = flag.Int("slots", 0, "scheduler slots (0 = 2x warps)")
		wst       = flag.Int("wst", 16, "warp-split table entries")
		l1kb      = flag.Int("l1kb", 32, "L1 D-cache size in KB")
		l1assoc   = flag.Int("l1assoc", 8, "L1 D-cache associativity (0 = fully associative)")
		l2lat     = flag.Int("l2lat", 30, "L2 lookup latency in cycles")
		l2kb      = flag.Int("l2kb", 4096, "L2 size in KB")
		dist      = flag.String("dist", "block", "thread-to-WPU mapping: block or interleave")
		scale     = flag.Int("scale", 1, "input-size multiplier (power of two; see workloads.AllWithScale)")
		noHints   = flag.Bool("nomemhints", false, "ignore the static memory-divergence hints (control arm; behaviour-identical by construction)")
		verify    = flag.Bool("verify", true, "verify results against the host reference")
		showDis   = flag.Bool("disasm", false, "print each kernel's disassembly instead of running")
		jobs      = flag.Int("j", 0, "max concurrent simulations with -bench all (0 = GOMAXPROCS)")
		cacheDir  = flag.String("cachedir", "", "on-disk result store directory (default ~/.cache/dwsim)")
		noCache   = flag.Bool("nocache", false, "disable the on-disk result store")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file ('-' = stdout; single benchmark only)")
		tlOut     = flag.String("timeline", "", "write the interval timeline CSV to this file ('-' = stdout; single benchmark only)")
		statsOut  = flag.String("stats", "", "write machine-readable run metrics JSON to this file ('-' = stdout)")
		httpObs   = flag.String("httpobs", "", "serve live run metrics over HTTP at this address (e.g. :8080) while the process runs: '/' returns a JSON snapshot, '/metrics' the Prometheus text format")
		obsRate   = flag.Uint64("httpobsevery", 0, "live snapshot refresh period in cycles for -httpobs (0 = a coarse default)")
		obsEvery  = flag.Uint64("obsevery", 1000, "timeline sample interval in cycles for -trace/-timeline")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dwsim: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dwsim:", err)
				return
			}
			defer f.Close()
			// The allocs profile records cumulative allocations, which is
			// what the allocation-free event path is tuned against.
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "dwsim: memprofile:", err)
			}
		}()
	}

	k := report.Knobs{
		WPUs: *wpus, Width: *width, Warps: *warps, Slots: *slots, WST: *wst,
		L1KB: *l1kb, L1Assoc: *l1assoc, L2KB: *l2kb, L2Lat: *l2lat,
		Scheme: wpu.Scheme(*scheme), Scale: *scale,
		NoMemHints: *noHints,
	}
	switch *dist {
	case "block":
		k.Dist = sim.DistBlock
	case "interleave":
		k.Dist = sim.DistInterleave
	default:
		fmt.Fprintf(os.Stderr, "dwsim: unknown -dist %q (want block or interleave)\n", *dist)
		os.Exit(1)
	}

	names := []string{*benchName}
	if *benchName == "all" {
		names = names[:0]
		for _, s := range workloads.All() {
			names = append(names, s.Name)
		}
	}

	if *showDis {
		for _, name := range names {
			if err := disasm(name, k); err != nil {
				fmt.Fprintln(os.Stderr, "dwsim:", err)
				os.Exit(1)
			}
		}
		return
	}

	opts := []report.Option{report.WithJobs(*jobs)}
	if !*noCache {
		st, err := report.OpenStore(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dwsim: %v (continuing without the on-disk store)\n", err)
		} else {
			opts = append(opts, report.WithStore(st))
		}
	}
	s := report.NewSession(opts...)
	s.Verify = *verify

	var live *sim.Live
	var liveSys struct {
		mu  sync.Mutex
		sys *sim.System
	}
	if *httpObs != "" {
		live = sim.NewLive(*obsRate)
		s.OnSystem = func(sys *sim.System) {
			live.Attach(sys)
			liveSys.mu.Lock()
			liveSys.sys = sys
			liveSys.mu.Unlock()
		}
		ln, err := net.Listen("tcp", *httpObs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsim: -httpobs:", err)
			os.Exit(1)
		}
		defer ln.Close()
		go http.Serve(ln, live) //nolint:errcheck // serves until process exit
		fmt.Fprintf(os.Stderr, "dwsim: live metrics at http://%s/ (JSON) and http://%s/metrics (Prometheus)\n", ln.Addr(), ln.Addr())
	}

	traced := *traceOut != "" || *tlOut != ""
	if traced && len(names) != 1 {
		fmt.Fprintln(os.Stderr, "dwsim: -trace/-timeline need a single benchmark, not -bench all")
		os.Exit(1)
	}

	var docs []report.RunDoc
	if traced {
		tr := obs.New(*obsEvery)
		if live != nil {
			live.SetMeta(names[0], string(k.Scheme))
		}
		start := time.Now()
		r, err := s.RunTraced(names[0], k, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsim:", err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		printRun(names[0], k, r)
		if *traceOut != "" {
			if err := writeTo(*traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, tr) }); err != nil {
				fmt.Fprintln(os.Stderr, "dwsim: write trace:", err)
				os.Exit(1)
			}
		}
		if *tlOut != "" {
			if err := writeTo(*tlOut, func(w io.Writer) error { return report.TimelineCSV(w, tr) }); err != nil {
				fmt.Fprintln(os.Stderr, "dwsim: write timeline:", err)
				os.Exit(1)
			}
		}
		doc := report.NewRunDoc(r, k, "traced-live", wall)
		doc.Hists = &tr.Hists
		docs = append(docs, doc)
	} else {
		// Prefetch only pays off with several points; for a single bench run
		// it directly so the measured wall time is the simulation itself.
		if len(names) > 1 {
			var grid []report.Job
			for _, name := range names {
				grid = append(grid, report.Job{Bench: name, Knobs: k})
			}
			if err := s.Prefetch(grid); err != nil {
				fmt.Fprintln(os.Stderr, "dwsim:", err)
				os.Exit(1)
			}
		}
		for _, name := range names {
			if live != nil {
				live.SetMeta(name, string(k.Scheme))
			}
			start := time.Now()
			r, err := s.Run(name, k)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dwsim:", err)
				os.Exit(1)
			}
			printRun(name, k, r)
			docs = append(docs, report.NewRunDoc(r, k, s.Provenance(name, k), time.Since(start).Seconds()))
		}
	}

	if live != nil {
		liveSys.mu.Lock()
		if liveSys.sys != nil {
			live.Finish(liveSys.sys)
		}
		liveSys.mu.Unlock()
	}

	if *statsOut != "" {
		err := writeTo(*statsOut, func(w io.Writer) error { return report.WriteStatsDoc(w, docs, s.Stats()) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsim: write stats:", err)
			os.Exit(1)
		}
	}
}

// writeTo streams fn's output to path, with "-" meaning stdout.
func writeTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func schemeList() string {
	var names []string
	for _, s := range wpu.AllSchemes {
		names = append(names, string(s))
	}
	return strings.Join(names, ", ")
}

// disasm prints each kernel's disassembly; it builds the workload against
// a throwaway machine instead of simulating it.
func disasm(name string, k report.Knobs) error {
	spec, err := workloads.ByNameScaled(name, max(k.Scale, 1))
	if err != nil {
		return err
	}
	sys, err := sim.New(k.Config())
	if err != nil {
		return err
	}
	inst, err := spec.Build(sys)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, st := range inst.Steps() {
		if seen[st.Prog.Name] {
			continue
		}
		seen[st.Prog.Name] = true
		fmt.Printf("== %s ==\n%s\n", st.Prog.Name, st.Prog.Disassemble())
	}
	return nil
}

func printRun(name string, k report.Knobs, r report.Result) {
	st := r.Stats
	l1 := r.L1
	e := r.Energy
	fmt.Printf("%-8s %-24s cycles=%-9d busy=%.1f%% memstall=%.1f%% width=%.1f/%d\n",
		name, k.Scheme, r.Cycles,
		100*float64(st.BusyCycles)/float64(st.Cycles()),
		100*st.MemStallFraction(), st.MeanSIMDWidth(), k.Width)
	fmt.Printf("  instr=%d threadops=%d branches=%d (%.1f%% divergent) memacc=%d (%.1f%% divergent, %.1f%% with miss)\n",
		st.Issued, st.ThreadOps, st.Branches, pct(st.DivBranch, st.Branches),
		st.MemAccesses, pct(st.MemDivergent, st.MemAccesses), pct(st.MemWithMiss, st.MemAccesses))
	fmt.Printf("  L1: %.1f%% miss | subdivisions: branch=%d mem=%d revive=%d | merges: pc=%d scope=%d | peak splits=%d\n",
		100*l1.MissRate(), st.BranchSubdivisions, st.MemSubdivisions, st.Revivals,
		st.PCMerges, st.ScopeMerges, st.PeakSplits)
	if st.SlipEvents > 0 {
		fmt.Printf("  slip: events=%d merges=%d refused=%d\n", st.SlipEvents, st.SlipMerges, st.SlipRefused)
	}
	fmt.Printf("  energy=%.3f mJ (dynamic %.3f, leakage %.3f)\n", e.TotalmJ(), e.DynamicmJ(), e.LeakagemJ())
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
