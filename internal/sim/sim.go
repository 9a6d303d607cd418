// Package sim assembles the full simulated machine of the paper: four
// 16-wide WPUs with four warps each, private L1 caches, a crossbar, a
// shared inclusive MESI-coherent L2, and DRAM (Table 3). It drives the
// cycle/event loop, coordinates kernel-wide barriers, and exposes the
// aggregate statistics the experiment harness consumes.
package sim

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/wpu"
)

// Distribution selects how global thread IDs map onto WPUs.
type Distribution int

const (
	// DistBlock assigns consecutive thread IDs to the same WPU (and warp):
	// the locality-aware assignment the paper uses (§3.1, citing [18]).
	DistBlock Distribution = iota
	// DistInterleave deals thread IDs round-robin across WPUs — the
	// locality-oblivious alternative, useful to reproduce the claim that
	// neighbouring tasks belong together.
	DistInterleave
)

// Config describes the whole machine.
type Config struct {
	WPUs int
	WPU  wpu.Config
	Hier mem.HierarchyConfig
	// Dist selects the thread-to-WPU mapping (default DistBlock).
	Dist Distribution
	// Trace attaches the observability sink to every component of the
	// machine (events) and enables the interval timeline sampler (every
	// Trace.Interval cycles). nil — the default, and the only value the
	// experiment cache key can denote — runs uninstrumented.
	Trace *obs.Trace
}

// DefaultConfig returns the paper's Table 3 configuration: 4 WPUs, each
// 1 GHz in-order with 4 warps × 16 lanes; 32 KB 8-way L1 D-caches with
// 3-cycle hits, 128 B lines and 32 MSHRs; a 4 MB 16-way shared L2 with
// 30-cycle lookup; 100-cycle DRAM.
func DefaultConfig() Config {
	return Config{
		WPUs: 4,
		WPU: wpu.Config{
			Warps: 4,
			Width: 16,
		},
		Hier: mem.HierarchyConfig{
			L1: mem.L1Config{
				SizeBytes: 32 * 1024,
				Ways:      8,
				LineSize:  128,
				HitLat:    3,
				Banks:     16,
				MSHRs:     32,
			},
			L2: mem.L2Config{
				SizeBytes: 4 * 1024 * 1024,
				Ways:      16,
				LineSize:  128,
				LookupLat: 30,
				ProbeLat:  12,
				MSHRs:     256,
			},
			XbarLat:   6,
			XbarOcc:   2,
			MemBusOcc: 8,
			DRAMLat:   100,
		},
	}
}

// CostParamsFor translates a machine configuration plus a launch thread
// count into the static cost model's parameter block (the Launch-time
// mirror of program.CostModelFor's Build-time defaults). MemTxWorst
// composes the worst path one line transaction can take through this
// hierarchy: L1 probe + crossbar there and back with occupancy + L2
// lookup + L2 probe + memory bus both ways + two DRAM accesses (the
// second covering a dirty-line writeback or queueing behind one).
func CostParamsFor(cfg Config, threads int) program.CostParams {
	w := cfg.WPU.Normalized()
	if cfg.Dist == DistInterleave {
		w.LaneTidStep = cfg.WPUs
	}
	if w.LaneTidStep <= 0 {
		w.LaneTidStep = 1
	}
	h := cfg.Hier
	memTx := h.L1.HitLat + 2*(h.XbarLat+h.XbarOcc) + h.L2.LookupLat + h.L2.ProbeLat + 2*h.MemBusOcc + 2*h.DRAMLat
	return program.CostParams{
		WPUs:        cfg.WPUs,
		Warps:       w.Warps,
		Width:       w.Width,
		Threads:     threads,
		HitLat:      int(h.L1.HitLat),
		MemTxWorst:  int(memTx),
		IMissLat:    w.IMissLat,
		ICacheLines: w.ICacheLines,
		Mem: program.MemParams{
			Lanes:     w.Width,
			LineBytes: int64(h.L1.LineSize),
			Banks:     h.L1.Banks,
			TidStep:   int64(w.LaneTidStep),
		},
	}
}

// System is one assembled machine instance. The simulated clock persists
// across kernels so multi-pass workloads accumulate a single timeline.
type System struct {
	Cfg  Config
	Q    *engine.Queue
	Hier *mem.Hierarchy
	WPUs []*wpu.WPU

	cycle engine.Cycle

	// obsPrev holds the per-WPU counter snapshot at the previous timeline
	// sample, so each Sample carries interval deltas.
	obsPrev []wpu.Stats

	// Tracer, when set, is invoked once per simulated cycle after all WPUs
	// ticked — the hook behind cmd/dwstrace and custom instrumentation.
	Tracer func(cycle uint64)
}

// New builds a machine.
func New(cfg Config) (*System, error) {
	if cfg.WPUs <= 0 {
		return nil, fmt.Errorf("sim: need at least one WPU")
	}
	if err := cfg.Hier.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %v", err)
	}
	cfg.Hier.Trace = cfg.Trace
	// Under interleaved distribution adjacent lanes of a warp hold thread
	// IDs one WPU-count apart; the WPUs scale their static per-pc
	// transaction bounds by this step so the concordance check stays sound.
	if cfg.Dist == DistInterleave {
		cfg.WPU.LaneTidStep = cfg.WPUs
	}
	s := &System{Cfg: cfg, Q: &engine.Queue{}}
	s.Hier = mem.NewHierarchy(s.Q, cfg.WPUs, cfg.Hier)
	for i := 0; i < cfg.WPUs; i++ {
		w, err := wpu.New(i, s.Q, cfg.WPU, s.Hier.L1s[i], s.Hier.Mem, cfg.Trace)
		if err != nil {
			return nil, err
		}
		s.WPUs = append(s.WPUs, w)
	}
	return s, nil
}

// Memory exposes the functional memory for workload setup/verification.
func (s *System) Memory() *mem.Memory { return s.Hier.Mem }

// Cycles returns the simulated time so far.
func (s *System) Cycles() uint64 { return uint64(s.cycle) }

// ThreadCapacity returns the machine's hardware thread count.
func (s *System) ThreadCapacity() int {
	return s.Cfg.WPUs * s.WPUs[0].ThreadCapacity()
}

// Threads builds n initial register files with the launch ABI (R1 = global
// thread ID, R2 = thread count, R3 = WPU-local index filled at dispatch)
// and applies setup to each.
func Threads(n int, setup func(tid int, r *isa.RegFile)) []isa.RegFile {
	regs := make([]isa.RegFile, n)
	for i := range regs {
		regs[i].Set(1, int64(i))
		regs[i].Set(2, int64(n))
		if setup != nil {
			setup(i, &regs[i])
		}
	}
	return regs
}

// RunKernel distributes threads block-wise over the WPUs (neighbouring
// thread IDs share a warp, the locality-aware assignment of §3.1) and runs
// the machine until every thread halts. It returns the cycles this kernel
// took.
func (s *System) RunKernel(p *program.Program, threads []isa.RegFile) (uint64, error) {
	if len(threads) == 0 {
		return 0, fmt.Errorf("sim: no threads")
	}
	if len(threads) > s.ThreadCapacity() {
		return 0, fmt.Errorf("sim: %d threads exceed machine capacity %d", len(threads), s.ThreadCapacity())
	}
	chunks := make([][]isa.RegFile, s.Cfg.WPUs)
	switch s.Cfg.Dist {
	case DistInterleave:
		for i := range threads {
			w := i % s.Cfg.WPUs
			chunks[w] = append(chunks[w], threads[i])
		}
	default: // DistBlock
		per := (len(threads) + s.Cfg.WPUs - 1) / s.Cfg.WPUs
		for i := range chunks {
			lo := i * per
			if lo >= len(threads) {
				break
			}
			chunks[i] = threads[lo:min(lo+per, len(threads))]
		}
	}
	for i, w := range s.WPUs {
		chunk := chunks[i]
		for j := range chunk {
			chunk[j].Set(3, int64(j))
		}
		if err := w.Launch(p, chunk); err != nil {
			return 0, err
		}
	}
	start := s.cycle
	if err := s.run(); err != nil {
		return 0, err
	}
	return uint64(s.cycle - start), nil
}

func (s *System) run() error {
	for {
		done := true
		for _, w := range s.WPUs {
			if !w.Done() {
				done = false
				break
			}
		}
		if done {
			return nil
		}

		s.Q.RunUntil(s.cycle)
		progressBefore := s.totalProgress()
		// Barrier state only changes inside a WPU's own Tick (or the release
		// below), so folding the at-barrier check into the tick loop sees
		// exactly what a separate scan after the loop would.
		atBarrier := false
		for _, w := range s.WPUs {
			w.Tick()
			if w.AnyAtBarrier() {
				atBarrier = true
			}
		}
		released := false
		if atBarrier && s.allBarrierReady() {
			for _, w := range s.WPUs {
				w.ReleaseBarrier()
			}
			released = true
		}
		if s.Tracer != nil {
			s.Tracer(uint64(s.cycle))
		}
		if t := s.Cfg.Trace; t != nil && t.Interval != 0 && uint64(s.cycle)%t.Interval == 0 {
			s.sampleTimeline(uint64(s.cycle))
		}
		if s.Q.Len() == 0 && s.totalProgress() == progressBefore && !released {
			// Nothing pending, nothing issued, nothing released: the machine
			// can never make progress again.
			var dump string
			for _, w := range s.WPUs {
				dump += w.DebugDump()
			}
			return fmt.Errorf("sim: deadlock at cycle %d\n%s", s.cycle, dump)
		}
		s.cycle++
	}
}

func (s *System) totalProgress() uint64 {
	var n uint64
	for _, w := range s.WPUs {
		n += w.Progress()
	}
	return n
}

func (s *System) allBarrierReady() bool {
	for _, w := range s.WPUs {
		if !w.BarrierReady() {
			return false
		}
	}
	return true
}

// sampleTimeline appends one timeline row per WPU to the observability
// sink: interval deltas of the cycle/issue accounting plus instantaneous
// WST, scheduler and MSHR occupancies.
func (s *System) sampleTimeline(cycle uint64) {
	t := s.Cfg.Trace
	if s.obsPrev == nil {
		s.obsPrev = make([]wpu.Stats, len(s.WPUs))
	}
	l2 := s.Hier.L2.OutstandingMisses()
	for i, w := range s.WPUs {
		st := w.Stats
		prev := &s.obsPrev[i]
		t.AddSample(obs.Sample{
			Cycle:       cycle,
			WPU:         i,
			Busy:        st.BusyCycles - prev.BusyCycles,
			StallMem:    st.MemStallCycles() - prev.MemStallCycles(),
			StallOther:  st.StallOtherCycles() - prev.StallOtherCycles(),
			Issued:      st.Issued - prev.Issued,
			WidthAccum:  st.WidthAccum - prev.WidthAccum,
			WSTOcc:      w.LiveSplits(),
			Resident:    w.ResidentSplits(),
			SlotWaiters: w.SlotWaiters(),
			L1MSHR:      s.Hier.L1s[i].OutstandingMisses(),
			L2MSHR:      l2,
		})
		s.obsPrev[i] = st
	}
}

// TotalStats sums the per-WPU statistics.
func (s *System) TotalStats() wpu.Stats {
	var t wpu.Stats
	for _, w := range s.WPUs {
		t.Add(&w.Stats)
	}
	return t
}

// L1Stats sums the private-cache statistics.
func (s *System) L1Stats() mem.L1Stats {
	var t mem.L1Stats
	for _, c := range s.Hier.L1s {
		t.Add(c.Stats)
	}
	return t
}

// L2Stats returns the shared-cache statistics.
func (s *System) L2Stats() mem.L2Stats { return s.Hier.L2.Stats }
