package wpu

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
)

// WPU is one warp processing unit: an in-order, single-issue SIMD front end
// sequencing Width lanes across Warps warps, switching SIMD groups on every
// cache access to hide latency (§3.3), and optionally subdividing warps on
// branch and memory divergence (§4, §5).
type WPU struct {
	ID  int
	cfg Config

	q    *engine.Queue
	l1   *mem.L1
	fmem *mem.Memory
	prog *program.Program
	// code is the running program's pre-decoded dispatch stream (cached at
	// Launch): the issue loop indexes it once per instruction and switches
	// on the dense Kind instead of re-classifying isa.Op per issue.
	code []isa.Decoded

	// trace is the per-System observability sink (nil = disabled). Every
	// emission site nil-checks it so untraced runs pay a single branch.
	trace *obs.Trace

	warps []*Warp

	// The bounded scheduler (§5.6/§6.6): slots hold resident SIMD groups;
	// surplus splits queue in slotWait until a slot frees.
	slots    []*Split
	slotWait []*Split
	// slotWaitReady counts Ready splits in slotWait, maintained on every
	// queue edge and state transition so stall attribution never scans the
	// queue (it can hold dozens of splits in small-slot-count sweeps).
	slotWaitReady int
	rrNext        int
	cur           *Split
	// readyMask mirrors "slots[i] holds a Ready split" per bit, so the
	// per-cycle scheduler scan only visits ready slots. Maintained by
	// acquireSlot/releaseSlot/admitWaiter and setState; usable only while
	// the slot count fits the word (maskSched).
	readyMask uint64
	maskSched bool
	// slotProg mirrors slots[i].prog for resident splits, packed as
	// prog<<6|i: the per-cycle least-progressed scan min-reduces this
	// dense row (no Split pointer chased, no branch mispredicts) and the
	// low bits of the winner give the slot back. The packing preserves
	// ordering within one scan partition because equal progs tie-break to
	// the lower slot index there anyway. Synced by acquireSlot/admitWaiter
	// and syncProg at every prog mutation of a resident split; meaningful
	// only under maskSched (slot indices then fit the 6 low bits).
	slotProg []uint64

	splitCount  int // live scheduling entities, bounded by WSTEntries
	nextSplitID int
	// atBarrier counts splits parked at the kernel barrier and unhalted
	// counts live not-yet-halted threads; both make the per-cycle driver
	// queries (AnyAtBarrier, Done) O(1) instead of warp×split scans.
	atBarrier int
	// memWait counts splits in WaitMem/WaitSlip so stallCycle classifies
	// most stalls without scanning. Maintained by setState/removeSplit.
	memWait int
	// memWaitDiv counts, of the memWait splits, those whose wait was caused
	// by a divergent access (some lanes hit, some missed — Split.waitDiv);
	// stallCycle attributes such stall cycles to StallMemDivergent.
	memWaitDiv int
	// wstFullAt holds q.Now()+1 at the most recent WST-full refusal (zero =
	// never refused), so stallCycle can attribute a same-cycle stall to the
	// full warp-split table. The +1 bias keeps cycle 0 distinguishable.
	wstFullAt engine.Cycle
	unhalted  int

	launched bool
	// progress counts state transitions that advance the machine without
	// issuing an instruction (scope arrivals, slip swaps, revivals); the
	// simulation driver uses it to distinguish stalls from deadlock.
	progress uint64

	// Per-WPU instruction cache (Table 3); cold fetches stall issue. Each
	// distinct program gets its own fetch-address range so successive
	// kernels of a multi-pass workload coexist in the cache, as their code
	// would at distinct addresses on real hardware.
	icache          *icache
	fetchStallUntil engine.Cycle
	refill          wpuRefill
	// progBases assigns each distinct program its fetch-address range. It
	// is a small insertion-ordered slice, not a pointer-keyed map: a WPU
	// sees a handful of programs per workload, and pointer-keyed maps are
	// a determinism hazard (see cmd/dwslint's ptrmaprange check).
	progBases    []progBase
	nextProgBase int
	fetchBase    int

	// execMem scratch, reused across instructions: the coalesced line
	// groups of the instruction being issued, and the pooled completion
	// tokens its cache accesses carry (indexed by the event argument; see
	// HandleEvent). freeTok is the token free list.
	memGroups []lineGroup
	tokens    []memToken
	freeTok   []int32

	// stackPool recycles re-convergence stack slices between retired and
	// newly created splits: subdivision-heavy schemes (ReviveSplit in
	// particular) create and retire splits continuously in steady state,
	// and the pool keeps that churn allocation-free. A split's current
	// stack is exclusively owned — freezing moves the slice into the sync
	// scope and the split is immediately given a replacement — so a stack
	// recycled at removeSplit can have no live aliases.
	stackPool [][]StackEntry

	// Subdivision predictor (PredictiveSplit, the §8 extension).
	predictor subdivPredictor

	// memBound holds the static worst-case line-transaction bound per pc
	// (-1 = no bound: non-memory or divergent-gather), recomputed at Launch
	// for this WPU's width/line/bank geometry. Populated only on traced
	// runs; execMem checks observed transactions against it and emits
	// EvMemBoundExceeded on violation (an analysis soundness bug).
	memBound []int32

	// Adaptive slip state (§5.7).
	maxSlip       int
	intervalStart uint64 // cycle count at last adaptation
	intervalBusy  uint64
	intervalWait  uint64

	Stats Stats
}

// New builds a WPU bound to its private L1 and the functional memory.
// trace is the per-System observability sink; nil disables event emission.
func New(id int, q *engine.Queue, cfg Config, l1 *mem.L1, fmem *mem.Memory, trace *obs.Trace) (*WPU, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &WPU{
		ID:    id,
		cfg:   cfg,
		q:     q,
		l1:    l1,
		fmem:  fmem,
		trace: trace,
		slots: make([]*Split, cfg.SchedSlots),
		// Always 64 wide (not SchedSlots): pickNextMask reinterprets the
		// row as *[64]uint64 so its scan loop carries no bounds checks.
		slotProg: make([]uint64, max(cfg.SchedSlots, 64)),
		icache:   newICache(cfg.ICacheLines, cfg.ICacheWays),
		maxSlip:  cfg.Width / 2,
	}
	w.maskSched = cfg.SchedSlots <= 64
	w.refill = wpuRefill{w}
	w.Stats.ThreadMisses = make([][]uint64, cfg.Warps)
	for i := range w.Stats.ThreadMisses {
		w.Stats.ThreadMisses[i] = make([]uint64, cfg.Width)
	}
	for i := 0; i < cfg.Warps; i++ {
		w.warps = append(w.warps, &Warp{
			id:   i,
			wpu:  w,
			regs: isa.NewLaneRegs(cfg.Width),
		})
	}
	return w, nil
}

// progBase records the fetch-address range assigned to one program.
type progBase struct {
	prog *program.Program
	base int
}

// wpuRefill is the icache refill completion: a pre-bound handler so a cold
// fetch schedules only a pooled event.
type wpuRefill struct{ w *WPU }

func (r *wpuRefill) HandleEvent(uint64) { r.w.progress++ }

// lineGroup is one coalesced cache-line access of a SIMD memory
// instruction: the line address, the lanes it covers, and the pool index of
// the token routing its completion.
type lineGroup struct {
	addr  uint64
	lanes Mask
	tok   int32
}

// HandleEvent completes one coalesced line access; the argument indexes the
// token pool. The token is released before the owner's callback runs so the
// owner's next memory instruction can reuse it.
func (w *WPU) HandleEvent(arg uint64) {
	tok := &w.tokens[arg]
	owner, lanes := tok.owner, tok.lanes
	// The stale owner pointer stays in the pool slot — clearing it here
	// would cost a write barrier per completion, and allocToken overwrites
	// the slot before the token can be read again.
	w.freeTok = append(w.freeTok, int32(arg))
	owner.onLineDone(lanes)
}

// allocToken takes a completion token from the pool. Only indexes are held
// across the access, so pool growth is safe.
func (w *WPU) allocToken(lanes Mask) int32 {
	if n := len(w.freeTok); n > 0 {
		ti := w.freeTok[n-1]
		w.freeTok = w.freeTok[:n-1]
		// Refresh lanes only: zeroing the interface field would cost a
		// write barrier per access, and every execMem exit path routes
		// assignOwner over the full hit∪miss mask — which covers every
		// group — before a completion event can fire.
		w.tokens[ti].lanes = lanes
		return ti
	}
	w.tokens = append(w.tokens, memToken{lanes: lanes})
	return int32(len(w.tokens) - 1)
}

// assignOwner routes the current instruction's tokens whose lanes overlap
// to target. Ownership is assigned in the same cycle the accesses issue —
// before any completion can fire (completions are events).
func (w *WPU) assignOwner(target completionTarget, lanes Mask) {
	for _, g := range w.memGroups {
		if g.lanes&lanes != 0 {
			w.tokens[g.tok].owner = target
		}
	}
}

// Config returns the (defaulted) configuration.
func (w *WPU) Config() Config { return w.cfg }

// ThreadCapacity returns Warps × Width.
func (w *WPU) ThreadCapacity() int { return w.cfg.Warps * w.cfg.Width }

// Progress returns a monotonic counter of issues plus non-issue state
// transitions; when it stops changing with an empty event queue, the
// machine is deadlocked.
func (w *WPU) Progress() uint64 { return w.Stats.Issued + w.progress }

// emit records one structured trace event. Callers nil-check w.trace
// before calling so the disabled path never constructs the Event.
func (w *WPU) emit(kind obs.EventKind, warp, pc int, mask, mask2 Mask) {
	//dwslint:ignore every emit caller nil-checks w.trace first (zero-cost pattern)
	w.trace.Emit(obs.Event{
		Cycle: uint64(w.q.Now()), Kind: kind, Unit: w.ID,
		Warp: warp, PC: pc, Mask: uint64(mask), Mask2: uint64(mask2),
	})
}

// LiveSplits returns the number of live scheduling entities — the current
// warp-split table occupancy (the timeline sampler reads this).
func (w *WPU) LiveSplits() int { return w.splitCount }

// ResidentSplits counts scheduler slots currently held by a SIMD group.
func (w *WPU) ResidentSplits() int {
	n := 0
	for _, s := range w.slots {
		if s != nil {
			n++
		}
	}
	return n
}

// SlotWaiters returns how many splits are queued for a scheduler slot.
func (w *WPU) SlotWaiters() int { return len(w.slotWait) }

// Launch starts a kernel: regs[i] is the initial register file of the i-th
// hardware thread (warp-major layout: warp = i/Width, lane = i%Width).
// A previous kernel must have completed. Statistics accumulate across
// launches so multi-pass workloads report totals.
func (w *WPU) Launch(prog *program.Program, regs []isa.RegFile) error {
	if w.launched && !w.Done() {
		return fmt.Errorf("wpu %d: Launch while a kernel is still running", w.ID)
	}
	if len(regs) > w.ThreadCapacity() {
		return fmt.Errorf("wpu %d: %d threads exceed capacity %d", w.ID, len(regs), w.ThreadCapacity())
	}
	if !prog.Verified() {
		// The re-convergence stack and WST trust the program's branch
		// metadata; only programs that passed the static verifier (every
		// path through program.Build) are safe to run.
		return fmt.Errorf("wpu %d: program %q has not passed the static verifier", w.ID, prog.Name)
	}
	// The static cost model's trip bounds rest on the declared input
	// ranges; a launch value outside them would silently void every bound,
	// so reject it here the way capacity violations are rejected.
	for _, u := range prog.UniformRanges() {
		for i := range regs {
			if v := regs[i].Get(u.Reg); v < u.Lo || v > u.Hi {
				return fmt.Errorf("wpu %d: program %q: thread %d launches r%d=%d outside its declared range [%d,%d]",
					w.ID, prog.Name, i, u.Reg, v, u.Lo, u.Hi)
			}
		}
	}
	w.prog = prog
	w.code = prog.Decoded()
	// Recompute the static worst-case transaction bounds for THIS WPU's
	// geometry (width, line size, bank count, lane tid step) — the bounds
	// baked into the program table use program.DefaultMemParams, which need
	// not match. Only traced runs pay for this: the bound check exists to
	// back the concordance harness, and untraced hot paths skip it.
	w.memBound = nil
	if w.trace != nil {
		l1cfg := w.l1.Config()
		w.memBound = make([]int32, len(prog.Code))
		for i := range w.memBound {
			w.memBound[i] = -1
		}
		for _, a := range prog.MemAccessFor(program.MemParams{
			Lanes:     w.cfg.Width,
			LineBytes: int64(l1cfg.LineSize),
			Banks:     l1cfg.Banks,
			TidStep:   int64(w.cfg.LaneTidStep),
		}) {
			w.memBound[a.PC] = int32(a.Transactions)
		}
	}
	base := -1
	for _, pb := range w.progBases {
		if pb.prog == prog {
			base = pb.base
			break
		}
	}
	if base < 0 {
		base = w.nextProgBase
		w.progBases = append(w.progBases, progBase{prog: prog, base: base})
		// Round the next base up to a line boundary past this program.
		w.nextProgBase = base + (len(prog.Code)/icacheInstPerLine+1)*icacheInstPerLine
	}
	w.fetchBase = base
	w.launched = true
	w.cur = nil
	w.rrNext = 0
	w.slotWait = nil
	w.slotWaitReady = 0
	for i := range w.slots {
		w.slots[i] = nil
	}
	w.readyMask = 0
	w.splitCount = 0
	w.atBarrier = 0
	w.memWait = 0
	w.memWaitDiv = 0
	w.wstFullAt = 0
	w.unhalted = 0
	for wi, warp := range w.warps {
		warp.live = 0
		warp.halted = 0
		warp.splits = nil
		if start := wi * w.cfg.Width; start < len(regs) {
			cnt := len(regs) - start
			if cnt > w.cfg.Width {
				cnt = w.cfg.Width
			}
			warp.regs.SetThreads(regs[start : start+cnt])
			for l := 0; l < cnt; l++ {
				warp.live |= LaneMask(l)
			}
		}
		w.unhalted += warp.live.Count()
		if warp.live != 0 {
			root := w.newSplit(warp, warp.live, 0, nil)
			root.state = Ready
			w.addSplit(root)
		}
	}
	return nil
}

// Done reports whether every launched thread has halted.
func (w *WPU) Done() bool {
	if !w.launched {
		return true
	}
	return w.unhalted == 0 && w.splitCount == 0
}

// newSplit allocates a split with a fresh base stack.
func (w *WPU) newSplit(warp *Warp, mask Mask, pc int, scope *SyncScope) *Split {
	w.nextSplitID++
	return &Split{
		id:    w.nextSplitID,
		warp:  warp,
		mask:  mask,
		pc:    pc,
		state: Ready,
		stack: w.newStack(pc, mask),
		scope: scope,
		born:  w.q.Now(),
	}
}

// newStack returns a single-entry base stack, recycled from the pool when
// possible. The spare capacity covers typical branch-nesting depth so the
// conventional push path does not reallocate either.
func (w *WPU) newStack(pc int, mask Mask) []StackEntry {
	var st []StackEntry
	if n := len(w.stackPool); n > 0 {
		st = w.stackPool[n-1][:1]
		w.stackPool = w.stackPool[:n-1]
	} else {
		st = make([]StackEntry, 1, 8)
	}
	st[0] = StackEntry{ReconvPC: program.NoIPdom, PC: pc, Mask: mask}
	return st
}

// resetStack rebases s's stack to a single entry after a subdivision. When
// the old stack was frozen into a sync scope the scope now owns the slice
// and s needs a fresh one; otherwise the old slice is s's own (subdivision
// without freezing only happens at base stack) and is reused in place.
func (w *WPU) resetStack(s *Split, frozen bool, pc int, mask Mask) {
	if frozen {
		s.stack = w.newStack(pc, mask)
		return
	}
	s.stack = s.stack[:1]
	s.stack[0] = StackEntry{ReconvPC: program.NoIPdom, PC: pc, Mask: mask}
}

// addSplit registers a split in the warp and gives it a scheduler slot if
// one is free; otherwise it queues for one.
func (w *WPU) addSplit(s *Split) {
	s.warp.splits = append(s.warp.splits, s)
	w.splitCount++
	if w.splitCount > w.Stats.PeakSplits {
		w.Stats.PeakSplits = w.splitCount
	}
	w.acquireSlot(s)
}

// acquireSlot makes s resident when a slot is free, else queues it.
func (w *WPU) acquireSlot(s *Split) {
	if s.resident || s.state == Dead {
		return
	}
	for i := range w.slots {
		if w.slots[i] == nil {
			w.slots[i] = s
			s.resident = true
			s.slotIdx = i
			w.syncProg(s)
			if s.state == Ready {
				w.readyMask |= 1 << uint(i)
			}
			return
		}
	}
	w.Stats.SlotWaits++
	w.slotWait = append(w.slotWait, s)
	s.queued = true
	if s.state == Ready {
		w.slotWaitReady++
	}
}

// releaseSlot takes s out of the scheduler (it hit a synchronization
// point, §6.6) and admits a waiting split.
func (w *WPU) releaseSlot(s *Split) {
	if !s.resident {
		return
	}
	s.resident = false
	for i := range w.slots {
		if w.slots[i] == s {
			w.slots[i] = nil
			w.readyMask &^= 1 << uint(i)
			w.admitWaiter(i)
			return
		}
	}
}

// removeSplit retires a split, freeing its slot and admitting a waiter.
func (w *WPU) removeSplit(s *Split) {
	sp := s.warp.splits
	for i := range sp {
		if sp[i] == s {
			s.warp.splits = append(sp[:i], sp[i+1:]...)
			break
		}
	}
	w.splitCount--
	if w.cur == s {
		w.cur = nil
	}
	w.releaseSlot(s)
	if s.state == AtBarrier {
		w.atBarrier--
	}
	if s.state == WaitMem || s.state == WaitSlip {
		w.memWait--
		if s.waitDiv {
			w.memWaitDiv--
		}
	}
	if w.trace != nil {
		w.trace.Hists.SplitLife.Record(uint64(w.q.Now() - s.born))
	}
	if s.queued && s.state == Ready {
		w.slotWaitReady--
	}
	s.state = Dead
	// Recycle the stack: dead splits may live on as wait-merge forwarding
	// stubs (mergedInto), but forwarding never touches the stack. Nil it so
	// any unexpected use fails fast instead of corrupting a reused slice.
	if s.stack != nil {
		w.stackPool = append(w.stackPool, s.stack)
		s.stack = nil
	}
}

func (w *WPU) admitWaiter(slot int) {
	for len(w.slotWait) > 0 {
		c := w.slotWait[0]
		w.slotWait = w.slotWait[1:]
		c.queued = false
		if c.state == Ready {
			w.slotWaitReady--
		}
		if c.state == Dead || c.resident {
			continue
		}
		w.slots[slot] = c
		c.resident = true
		c.slotIdx = slot
		w.syncProg(c)
		if c.state == Ready {
			w.readyMask |= 1 << uint(slot)
		}
		return
	}
}

// syncProg mirrors a resident split's progress counter into the dense
// slotProg row scanned by pickNextMask. Every prog mutation of a split
// that may hold a slot must be followed by a call here.
func (w *WPU) syncProg(s *Split) {
	if s.resident {
		w.slotProg[s.slotIdx] = s.prog<<6 | uint64(s.slotIdx&63)
	}
}

// setState transitions a split's scheduling state, keeping the ready-slot
// bitmask in sync for resident splits. Every transition of a split that may
// hold a slot must go through here.
func (w *WPU) setState(s *Split, st SplitState) {
	wasWait := s.state == WaitMem || s.state == WaitSlip
	isWait := st == WaitMem || st == WaitSlip
	if wasWait != isWait {
		if isWait {
			w.memWait++
			if s.waitDiv {
				w.memWaitDiv++
			}
			s.waitSince = w.q.Now()
		} else {
			w.memWait--
			if s.waitDiv {
				w.memWaitDiv--
				s.waitDiv = false
			}
		}
	}
	if s.queued {
		if s.state == Ready {
			w.slotWaitReady--
		}
		if st == Ready {
			w.slotWaitReady++
		}
	}
	s.state = st
	if s.resident {
		if st == Ready {
			w.readyMask |= 1 << uint(s.slotIdx)
		} else {
			w.readyMask &^= 1 << uint(s.slotIdx)
		}
	}
}

// wstRoom reports whether the warp-split table can accept one more entry.
func (w *WPU) wstRoom() bool {
	if w.splitCount < w.cfg.WSTEntries {
		return true
	}
	w.Stats.WSTFullRefusals++
	w.wstFullAt = w.q.Now() + 1
	if w.trace != nil {
		w.emit(obs.EvWSTRefusal, -1, -1, 0, 0)
	}
	return false
}

// Tick advances the WPU by one cycle: issue one instruction from the
// current SIMD group, or pick another ready group, or stall.
func (w *WPU) Tick() {
	if w.Done() {
		return
	}
	w.Stats.TickCycles++
	w.adaptSlip()

	// Fine-grained round-robin: pick a ready SIMD group each cycle (switching
	// costs nothing, §3.3). Interleaving sibling warp-splits keeps them in
	// near-lockstep so PC-based re-convergence re-unites them promptly at
	// control-flow joins (Figure 6d).
	// A cold instruction fetch stalls the front end until the refill
	// arrives (rare: kernels are resident after the cold start).
	if w.q.Now() < w.fetchStallUntil {
		w.stallCycle()
		return
	}
	// Dispatch straight to the mask scheduler in the common configuration:
	// going through pickNext would cost a second call per simulated cycle.
	if w.maskSched {
		w.cur = w.pickNextMask()
	} else {
		w.cur = w.pickNext()
	}
	if w.cur == nil && (w.cfg.MemScheme == ReviveSplit || w.cfg.MemScheme == PredictiveSplit) {
		if w.tryRevive() {
			w.cur = w.pickNext()
		}
	}
	if w.cur == nil {
		w.stallCycle()
		return
	}
	if !w.issueOne(w.cur) {
		w.stallCycle()
	}
}

// stallCycle attributes one non-issuing cycle to exactly one taxonomy
// bucket. The ladder is priority-ordered: front-end and scheduler-structure
// stalls (icache refill, WST full, slot wait) mask the underlying memory
// wait because removing them would let the cycle do useful work regardless
// of the outstanding misses; among memory waits, one divergent waiter makes
// the cycle divergent (the subdivision mechanisms target exactly those).
func (w *WPU) stallCycle() {
	// memWait counts WaitMem/WaitSlip splits, so the common classification
	// is O(1); fall-behind slip groups (possible only in slip modes) still
	// need the scan when no split is waiting. memBound reproduces the legacy
	// memory-stall predicate exactly — intervalWait feeds adaptSlip, whose
	// inputs must not shift.
	memBound := w.memWait > 0
	if !memBound && w.cfg.Slip != SlipOff {
		memBound = w.anySlipped()
	}
	if memBound {
		w.intervalWait++
	}
	now := w.q.Now()
	switch {
	case now < w.fetchStallUntil:
		w.Stats.StallICache++
	case w.wstFullAt == now+1:
		w.Stats.StallWSTFull++
	case w.readyWaiterQueued():
		w.Stats.StallSlotWait++
	case w.memWaitDiv > 0:
		w.Stats.StallMemDivergent++
	case w.memWait > 0:
		w.Stats.StallMemCoherent++
	case memBound:
		// Only slip fall-behind groups are outstanding: threads left behind
		// by a divergent access.
		w.Stats.StallMemDivergent++
	case w.atBarrier > 0:
		w.Stats.StallBarrier++
	default:
		w.Stats.IdleNoLiveWarp++
	}
}

// anySlipped reports whether any split carries fall-behind slip groups.
func (w *WPU) anySlipped() bool {
	for _, warp := range w.warps {
		for _, s := range warp.splits {
			if len(s.slipped) > 0 {
				return true
			}
		}
	}
	return false
}

// readyWaiterQueued reports whether a runnable split is queued for a
// scheduler slot — the stall would clear with more slots, not faster
// memory. The slotWaitReady counter makes this O(1); scanning slotWait
// here cost ~40% of full-report wall time in the small-slot sweeps.
func (w *WPU) readyWaiterQueued() bool {
	return w.slotWaitReady > 0
}

// pickNext selects the ready resident SIMD group whose threads have
// retired the fewest instructions, starting the scan round-robin for
// determinism and cross-warp fairness. Least-progressed-first keeps
// divergent siblings near-lockstep — the interleaving of Figure 6d — so
// they re-converge promptly instead of chasing each other through loops.
func (w *WPU) pickNext() *Split {
	if w.maskSched {
		return w.pickNextMask()
	}
	n := len(w.slots)
	var best *Split
	bestIdx := -1
	// Wrap by comparison, not modulo: this runs every simulated cycle and
	// an integer divide per slot dominates the scan.
	idx := w.rrNext
	for i := 0; i < n; i++ {
		if idx >= n {
			idx = 0
		}
		s := w.slots[idx]
		if s == nil || s.state != Ready {
			idx++
			continue
		}
		if w.cfg.DisableProgSched {
			// Ablation: plain round-robin.
			w.rrNext = idx + 1
			if w.rrNext >= n {
				w.rrNext = 0
			}
			return s
		}
		if best == nil || s.prog < best.prog {
			best, bestIdx = s, idx
		}
		idx++
	}
	if best != nil {
		w.rrNext = bestIdx + 1
		if w.rrNext >= n {
			w.rrNext = 0
		}
	}
	return best
}

// pickNextMask is pickNext over the ready-slot bitmask: identical selection
// (round-robin start, least-progressed wins, earlier slot in round-robin
// order breaks ties) visiting only ready slots. Splitting the mask at
// rrNext preserves the rotation: bits at or past rrNext scan first.
func (w *WPU) pickNextMask() *Split {
	m := w.readyMask
	if m == 0 {
		return nil
	}
	n := len(w.slots)
	if m&(m-1) == 0 {
		// One ready slot: every policy picks it.
		idx := bits.TrailingZeros64(m)
		w.rrNext = idx + 1
		if w.rrNext >= n {
			w.rrNext = 0
		}
		return w.slots[idx]
	}
	// rrNext is always wrapped into [0, n) ⊆ [0, 63]; the &63 lets the
	// compiler drop the oversized-shift guards.
	r := uint(w.rrNext) & 63
	hi := m >> r << r
	lo := m ^ hi
	if w.cfg.DisableProgSched {
		// Ablation: plain round-robin — first ready in rotation.
		part := hi
		if part == 0 {
			part = lo
		}
		idx := bits.TrailingZeros64(part)
		w.rrNext = idx + 1
		if w.rrNext >= n {
			w.rrNext = 0
		}
		return w.slots[idx]
	}
	// Least-progressed scan over the dense packed slotProg row: a pure
	// min-reduction per partition (compiled to CMOV — no data-dependent
	// branch), with the winning slot index recovered from the low bits.
	// A lower slot index wins prog ties within a partition, matching the
	// scan order; across partitions hi wins ties, so lo's winner is taken
	// only on strictly smaller prog.
	prog := (*[64]uint64)(w.slotProg)
	bestHi := ^uint64(0)
	for b := hi; b != 0; b &= b - 1 {
		bestHi = min(bestHi, prog[bits.TrailingZeros64(b)&63])
	}
	bestLo := ^uint64(0)
	for b := lo; b != 0; b &= b - 1 {
		bestLo = min(bestLo, prog[bits.TrailingZeros64(b)&63])
	}
	best := bestHi
	if bestLo>>6 < bestHi>>6 {
		best = bestLo
	}
	idx := int(best & 63)
	w.rrNext = idx + 1
	if w.rrNext >= n {
		w.rrNext = 0
	}
	return w.slots[idx]
}

// issueOne executes one instruction for the split's active mask. It
// returns false when the cycle degenerated into a stall (slip swap wait).
// The instruction comes from the pre-decoded dispatch stream: one index,
// one switch on the dense Kind, and per-op lane loops inside the arms.
func (w *WPU) issueOne(s *Split) bool {
	// Hand-inlined icache.Fetch MRU fast path — the function is over the
	// inlining budget and this runs once per issued instruction.
	ic := w.icache
	ic.Fetches++
	ic.clock++
	lineNo := (w.fetchBase + s.pc) / icacheInstPerLine
	if lw := ic.lastWay; lineNo == ic.lastLineNo && lw.tag == lineNo {
		lw.lastUse = ic.clock
	} else if !ic.fetchWalk(lineNo) {
		w.Stats.IFetchMisses++
		w.fetchStallUntil = w.q.Now() + engine.Cycle(w.cfg.IMissLat)
		// The refill is an event: it keeps the machine's clock honest (the
		// deadlock detector knows something is still in flight).
		w.q.ScheduleAt(w.fetchStallUntil, &w.refill, 0)
		return false
	}
	d := &w.code[s.pc]

	// Adaptive slip: absorb fall-behind groups whose PC we revisit (§5.7),
	// and stall at conditional branches until all slipped threads caught up
	// (SlipOn only; Slip.BranchBypass proceeds).
	if w.cfg.Slip != SlipOff {
		w.slipAbsorb(s)
		if s.state != Ready {
			return false
		}
		needJoin := d.Kind == isa.KindBranch && w.cfg.Slip == SlipOn
		if needJoin && len(s.slipped) > 0 {
			if w.slipSwapIn(s) {
				d = &w.code[s.pc]
			} else if len(s.slipped) > 0 {
				s.waitDiv = true // slipped groups exist only after divergence
				w.setState(s, WaitSlip)
				return false
			}
			// Otherwise all fall-behind groups were promoted to their own
			// splits; the branch can proceed for the remaining mask.
		}
	}

	// BranchLimited re-convergence (§5.3.1): memory-divergence splits stall
	// and re-merge at the next conditional branch.
	if d.Kind == isa.KindBranch && s.scope != nil && s.scope.limitControl && s.baseStack() {
		w.arriveAtScope(s)
		return false
	}

	w.Stats.Issued++
	w.Stats.BusyCycles++
	w.intervalBusy++
	s.prog++
	w.syncProg(s) // s came from pickNext: always resident
	width := uint64(s.mask.Count())
	w.Stats.WidthAccum += width
	w.Stats.ThreadOps += width
	if d.Flags&isa.DFFloat != 0 {
		w.Stats.FloatOps += width
	}

	switch d.Kind {
	case isa.KindHalt:
		w.finishHalt(s)
	case isa.KindBarrier:
		w.enterBarrier(s)
	case isa.KindJmp:
		s.pc = int(d.Target)
		w.postPCUpdate(s)
	case isa.KindBranch:
		w.execBranch(s, d)
	case isa.KindMem:
		w.execMem(s, d)
		w.cur = nil // switch SIMD groups on every cache access (§3.3)
	default: // KindALU
		isa.ExecALULanes(d, s.warp.regs, uint64(s.mask))
		s.pc++
		w.postPCUpdate(s)
	}
	// PC-based re-convergence (§4.5): a ready sibling parked at the PC the
	// running split just reached re-unites with it at no cost to either —
	// the sibling was waiting for issue anyway.
	if w.cfg.PCReconv && s.state == Ready {
		w.tryPCMerge(s)
	}
	return true
}

// postPCUpdate applies re-convergence stack pops, retires empty splits and
// registers sync-scope arrivals after any PC change. It may consume s.
func (w *WPU) postPCUpdate(s *Split) {
	if s.state == Dead {
		return
	}
	for {
		s.mask &^= s.warp.halted
		if !s.baseStack() {
			if s.mask.Empty() || s.pc == s.tos().ReconvPC {
				s.stack = s.stack[:len(s.stack)-1]
				e := s.tos()
				s.pc = e.PC
				s.mask = e.Mask
				continue
			}
			return
		}
		if s.mask.Empty() {
			w.retire(s)
			return
		}
		if s.scope != nil && s.pc == s.scope.reconvPC {
			w.arriveAtScope(s)
			return
		}
		return
	}
}

// retire removes a split whose threads have all halted (or merged away),
// updating any scope waiting on them.
func (w *WPU) retire(s *Split) {
	w.promoteAllSlip(s)
	sc := s.scope
	w.removeSplit(s)
	if sc != nil {
		w.maybeCompleteScope(sc)
	}
}

// finishHalt terminates the split's active threads. With a non-base stack
// the sibling/parent paths continue; with slip leftovers the fall-behind
// threads take over; otherwise the split retires.
func (w *WPU) finishHalt(s *Split) {
	w.warpHalt(s.warp, s.mask)
	s.mask = 0
	if len(s.parked) > 0 {
		// A parked run-ahead group exists (slip): resume it.
		p := s.parked[len(s.parked)-1]
		s.parked = s.parked[:len(s.parked)-1]
		s.mask = p.mask
		s.pc = p.pc
		return
	}
	if len(s.slipped) > 0 {
		if !w.slipSwapIn(s) && len(s.slipped) > 0 {
			s.waitDiv = true
			w.setState(s, WaitSlip)
		}
		if s.state == WaitSlip || !s.mask.Empty() {
			return
		}
	}
	w.postPCUpdate(s)
}

func (w *WPU) warpHalt(warp *Warp, mask Mask) {
	w.unhalted -= (mask &^ warp.halted).Count()
	warp.halted |= mask
}

// enterBarrier parks the split at a kernel-wide barrier. Barriers are only
// legal outside divergent regions; kernels violating that are authoring
// bugs, caught here.
func (w *WPU) enterBarrier(s *Split) {
	if !s.baseStack() {
		panic(fmt.Sprintf("wpu: %s reached a barrier inside a divergent region", s))
	}
	if len(s.slipped) > 0 {
		if w.slipSwapIn(s) {
			return
		}
		if len(s.slipped) > 0 {
			s.waitDiv = true
			w.setState(s, WaitSlip)
			return
		}
	}
	w.setState(s, AtBarrier)
	w.atBarrier++
	w.releaseSlot(s)
}

// BarrierReady reports whether every live thread on this WPU is parked at
// a barrier (vacuously true when the WPU is done).
func (w *WPU) BarrierReady() bool {
	if !w.launched {
		return true
	}
	for _, warp := range w.warps {
		var at Mask
		for _, s := range warp.splits {
			if s.state == AtBarrier {
				at |= s.mask
			}
		}
		if at != warp.liveUnhalted() {
			return false
		}
	}
	return true
}

// AnyAtBarrier reports whether at least one split is parked at a barrier.
func (w *WPU) AnyAtBarrier() bool { return w.atBarrier > 0 }

// ReleaseBarrier resumes all parked splits past the barrier, re-forming one
// full SIMD group per warp.
func (w *WPU) ReleaseBarrier() {
	for _, warp := range w.warps {
		var parked []*Split
		for _, s := range warp.splits {
			if s.state == AtBarrier {
				parked = append(parked, s)
			}
		}
		if len(parked) == 0 {
			continue
		}
		root := parked[0]
		for _, o := range parked[1:] {
			root.mask |= o.mask
			o.scope = nil
			w.removeSplit(o)
		}
		root.scope = nil
		root.pc++
		root.state = Ready
		w.atBarrier--
		root.stack[0] = StackEntry{ReconvPC: program.NoIPdom, PC: root.pc, Mask: root.mask}
		w.acquireSlot(root)
		w.progress++
	}
}

// execBranch evaluates a conditional branch, handling uniform outcomes,
// dynamic warp subdivision (§4), and conventional stack push serialisation.
func (w *WPU) execBranch(s *Split, d *isa.Decoded) {
	// The predicate register across all lanes is one contiguous SoA row;
	// taken-on-nonzero vs taken-on-zero is a pre-decoded flag.
	pred := s.warp.regs.Row(d.SrcA)
	nz := d.Flags&isa.DFBranchNZ != 0

	// Statically-uniform branch fast path: the divergence analysis proved
	// every lane agrees on this predicate, so evaluate one representative
	// lane and steer the whole split — no per-lane evaluation and no
	// re-convergence bookkeeping. The concordance test (internal/workloads)
	// runs with this disabled and asserts the analysis never mislabels a
	// dynamically divergent branch as uniform.
	if !w.cfg.DisableUniformFast && d.Flags&isa.DFUniform != 0 {
		w.Stats.Branches++
		w.Stats.UniformBranchFast++
		if (pred[s.mask.First()] != 0) == nz {
			s.pc = int(d.Target)
		} else {
			s.pc++
		}
		w.postPCUpdate(s)
		if s.state == Ready && w.cfg.PCReconv {
			w.tryPCMerge(s)
		}
		return
	}

	var taken Mask
	for m := uint64(s.mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		if (pred[lane] != 0) == nz {
			taken |= LaneMask(lane)
		}
	}
	notTaken := s.mask &^ taken

	w.Stats.Branches++
	if taken.Empty() || notTaken.Empty() {
		if notTaken.Empty() {
			s.pc = int(d.Target)
		} else {
			s.pc++
		}
		w.postPCUpdate(s)
		if s.state == Ready && w.cfg.PCReconv {
			w.tryPCMerge(s)
		}
		return
	}

	w.Stats.DivBranch++
	if w.trace != nil {
		w.emit(obs.EvBranchDiverge, s.warp.id, s.pc, taken, notTaken)
	}
	// Re-convergence comes from the branch's immediate post-dominator,
	// folded into the decoded stream at Build time; -1 encodes
	// program.NoIPdom.
	reconvPC := int(d.Reconv)
	if reconvPC < 0 {
		reconvPC = program.NoIPdom
	}

	subdivide := false
	switch {
	case s.scope != nil:
		// Already in asynchronous subdivided mode (§4.4): nested divergent
		// branches keep subdividing (BranchLimited scopes never get here —
		// they arrive at the branch instead).
		subdivide = w.wstRoom()
	case w.cfg.SubdivideOnBranch && d.Flags&isa.DFSubdiv != 0:
		// Subdivide only when the WPU actually needs another SIMD group to
		// hide latency; otherwise the conventional stack serialises the arms
		// at the same issue cost with a guaranteed re-join. (The paper gates
		// memory subdivision this way — LazySplit, §5.2 — and motivates the
		// same over-subdivision concern for branches in §4.3; our kernels'
		// basic blocks are small enough that the static filter alone lets
		// busy pipelines shred, so the laziness applies here too.)
		subdivide = w.readyOthers(s) < w.cfg.BranchLazyThreshold && w.wstRoom()
	}

	if subdivide {
		w.subdivideBranch(s, taken, notTaken, int(d.Target))
		return
	}

	// Conventional re-convergence stack (Fung et al.): serialise the paths.
	parent := s.tos()
	parent.PC = reconvPC
	s.stack = append(s.stack,
		StackEntry{ReconvPC: reconvPC, PC: s.pc + 1, Mask: notTaken},
		StackEntry{ReconvPC: reconvPC, PC: int(d.Target), Mask: taken},
	)
	s.pc = int(d.Target)
	s.mask = taken
	w.postPCUpdate(s)
}

// subdivideBranch forks s into two concurrently schedulable warp-splits
// (§4.2). If s carries a private stack it is frozen into a sync scope whose
// re-convergence PC is the post-dominator on top of the stack (§4.4).
func (w *WPU) subdivideBranch(s *Split, taken, notTaken Mask, target int) {
	w.Stats.BranchSubdivisions++
	if w.trace != nil {
		w.emit(obs.EvBranchSubdiv, s.warp.id, s.pc, taken, notTaken)
	}
	scope := s.scope
	frozen := !s.baseStack()
	if frozen {
		scope = &SyncScope{
			warp:     s.warp,
			reconvPC: s.syncPC(),
			expected: s.mask,
			frozen:   s.stack,
			parent:   s.scope,
		}
	}
	fallthrough_ := s.pc + 1
	// The taken path keeps the split object (and its scheduler slot).
	s.mask = taken
	s.pc = target
	w.resetStack(s, frozen, target, taken)
	s.scope = scope

	nt := w.newSplit(s.warp, notTaken, fallthrough_, scope)
	nt.prog = s.prog
	w.addSplit(nt)
	w.postPCUpdate(nt)
	w.postPCUpdate(s)
}

// coalesce merges one lane's line address into the scratch group list.
// The list is scanned linearly: a SIMD access touches at most Width lines
// and usually far fewer, so a map would cost more than it saves.
func coalesce(groups []lineGroup, la uint64, lane int) []lineGroup {
	for i := range groups {
		if groups[i].addr == la {
			groups[i].lanes |= LaneMask(lane)
			return groups
		}
	}
	return append(groups, lineGroup{addr: la, lanes: LaneMask(lane)})
}

// execMem issues one SIMD memory instruction: functional execution at
// issue, per-line coalescing into the banked L1, divergence detection, and
// the configured subdivision or slip response.
func (w *WPU) execMem(s *Split, d *isa.Decoded) {
	warp := s.warp
	write := d.Flags&isa.DFStore != 0
	s.memSince++

	// Functional execution and per-line coalescing over SoA rows: the base
	// register row gives every lane's address with one index, and loads
	// store straight into the destination row (a store to r0 was redirected
	// to the discard row at decode time). The group list is reused scratch
	// scanned linearly: a SIMD access touches at most Width lines and
	// usually far fewer, so a map would cost more than it saves.
	base := warp.regs.Row(d.SrcA)
	groups := w.memGroups[:0]
	if write {
		val := warp.regs.Row(d.SrcB)
		for v := uint64(s.mask); v != 0; v &= v - 1 {
			lane := bits.TrailingZeros64(v)
			addr := uint64(base[lane] + d.Imm)
			w.fmem.Write(addr, val[lane])
			groups = coalesce(groups, w.l1.Line(addr), lane)
		}
	} else {
		dst := warp.regs.Row(d.Dst)
		for v := uint64(s.mask); v != 0; v &= v - 1 {
			lane := bits.TrailingZeros64(v)
			addr := uint64(base[lane] + d.Imm)
			dst[lane] = w.fmem.Read(addr)
			groups = coalesce(groups, w.l1.Line(addr), lane)
		}
	}
	w.memGroups = groups

	w.Stats.MemInsts++
	w.Stats.MemAccesses++
	w.Stats.LineAccesses += uint64(len(groups))
	cls := d.MemClass()
	w.Stats.MemClassAccesses[cls]++
	w.Stats.MemClassTransactions[cls] += uint64(len(groups))
	if w.memBound != nil {
		if b := w.memBound[s.pc]; b >= 0 && int32(len(groups)) > b {
			w.Stats.MemBoundExceeded++
			w.emit(obs.EvMemBoundExceeded, warp.id, s.pc, s.mask, Mask(len(groups)))
		}
	}

	var hitMask, missMask Mask
	for i := range groups {
		g := &groups[i]
		g.tok = w.allocToken(g.lanes)
		if w.l1.AccessEvent(g.addr, write, w, uint64(g.tok)) {
			hitMask |= g.lanes
		} else {
			missMask |= g.lanes
		}
	}

	if missMask != 0 {
		w.observeRunAheadMiss(s)
		w.Stats.MemWithMiss++
		missMask.Lanes(func(lane int) {
			w.Stats.ThreadMisses[warp.id][lane]++
		})
	}
	divergent := hitMask != 0 && missMask != 0
	if divergent {
		w.Stats.MemDivergent++
	}

	// Static single-transaction hint (isa.DFMemHint): the divergence
	// analysis proved this access warp-uniform, so it occupies exactly one
	// line group and can never hit/miss-diverge — the subdivide/slip probe
	// below is provably fruitless and is pruned. Behaviour-identical by
	// construction; the panic is the runtime self-check of that proof.
	hinted := d.Flags&isa.DFMemHint != 0 && !w.cfg.DisableMemHints
	if hinted {
		w.Stats.MemDivHintSkips++
		if divergent {
			panic(fmt.Sprintf("wpu %d: access @pc %d hinted single-transaction but diverged (hit %x miss %x)",
				w.ID, s.pc, uint64(hitMask), uint64(missMask)))
		}
	}

	s.pc++ // the instruction is architecturally complete; data is pending

	if !hinted && divergent && w.cfg.Slip != SlipOff {
		if w.trySlip(s, hitMask, missMask) {
			return
		}
	} else if !hinted && divergent && w.cfg.MemScheme != MemNone {
		if w.shouldMemSubdivide(s) {
			w.subdivideMem(s, hitMask, missMask)
			return
		}
	}

	// Default: the whole group waits for its slowest thread.
	s.waitDiv = divergent
	w.setState(s, WaitMem)
	s.pending = s.mask
	w.assignOwner(s, s.mask)
	w.tryWaitMerge(s)
}

// tryWaitMerge applies PC-based re-convergence to SIMD groups suspended at
// the same PC (§4.5 compares PCs when memory instructions execute; groups
// that fell into phase-lock — e.g. a run-ahead and a fall-behind streaming
// the same loop one miss apart — re-unite here). Freshly subdivided pairs
// are exempt: their whole point is to wait separately.
func (w *WPU) tryWaitMerge(s *Split) {
	if w.cfg.DisableWaitMerge {
		return
	}
	if !w.cfg.PCReconv || s.state != WaitMem || !s.baseStack() || s.memSince == 0 {
		return
	}
	for i := 0; i < len(s.warp.splits); i++ {
		o := s.warp.splits[i]
		// Re-unite with siblings suspended at the same PC, and with ready
		// siblings parked there (they pay the remainder of s's wait — a few
		// cycles for hits; ReviveSplit re-splits them if it drags on).
		if o == s || (o.state != WaitMem && o.state != Ready) || o.pc != s.pc ||
			o.scope != s.scope || !o.baseStack() || o.memSince == 0 {
			continue
		}
		s.mask |= o.mask
		s.pending |= o.pending
		s.stack[0].Mask = s.mask
		if o.state == WaitMem {
			if o.waitDiv && !s.waitDiv {
				// The survivor now waits on a divergent access too; o's own
				// count is released by removeSplit below.
				s.waitDiv = true
				w.memWaitDiv++
			}
			if w.trace != nil {
				w.trace.Hists.WaitMergeWait.Record(uint64(w.q.Now() - o.waitSince))
			}
		}
		if o.prog > s.prog {
			s.prog = o.prog
			w.syncProg(s)
		}
		s.slipped = append(s.slipped, o.slipped...)
		s.parked = append(s.parked, o.parked...)
		for _, e := range o.slipped {
			e.split = s
		}
		o.slipped = nil
		o.parked = nil
		o.mergedInto = s
		o.scope = nil
		w.removeSplit(o)
		w.Stats.WaitMerges++
		if w.trace != nil {
			w.emit(obs.EvWaitMerge, s.warp.id, s.pc, s.mask, o.mask)
		}
		i = -1 // the splits slice changed; rescan
	}
}

// anyOtherReady reports whether a SIMD group other than s could issue.
func (w *WPU) anyOtherReady(s *Split) bool { return w.readyOthers(s) > 0 }

// readyOthers counts resident SIMD groups other than s that could issue.
func (w *WPU) readyOthers(s *Split) int {
	n := 0
	for _, o := range w.slots {
		if o != nil && o != s && o.state == Ready {
			n++
		}
	}
	return n
}

// shouldMemSubdivide applies the §5.2 subdivision schemes at access time.
func (w *WPU) shouldMemSubdivide(s *Split) bool {
	switch w.cfg.MemScheme {
	case AggressSplit:
		return w.wstRoom()
	case LazySplit, ReviveSplit:
		// Subdivide only when no other SIMD group can hide the latency.
		return !w.anyOtherReady(s) && w.wstRoom()
	case PredictiveSplit:
		return !w.anyOtherReady(s) && w.predictor.allow(s.pc) && w.wstRoom()
	}
	return false
}

// subdivideMem forks s at a memory divergence (§5.4): threads that hit form
// a run-ahead split; s remains the fall-behind split (it owns the pending
// line completions). Under BranchLimited a sync scope always binds the
// children; under BranchBypass one is needed only to freeze a non-base
// stack.
func (w *WPU) subdivideMem(s *Split, hitMask, missMask Mask) {
	w.Stats.MemSubdivisions++
	scope := s.scope
	frozen := w.cfg.MemReconv == BranchLimited || !s.baseStack()
	if frozen {
		scope = &SyncScope{
			warp:         s.warp,
			reconvPC:     s.syncPC(),
			limitControl: w.cfg.MemReconv == BranchLimited,
			expected:     s.mask,
			frozen:       s.stack,
			parent:       s.scope,
		}
	}
	pc := s.pc
	if w.trace != nil {
		w.emit(obs.EvMemSubdiv, s.warp.id, pc, hitMask, missMask)
	}

	hit := w.newSplit(s.warp, hitMask, pc, scope)
	hit.waitDiv = true
	w.setState(hit, WaitMem) // completes after the hit latency
	hit.pending = hitMask
	hit.prog = s.prog
	if w.cfg.MemScheme == PredictiveSplit {
		rec := &subdivRecord{pc: pc - 1}
		hit.subRec = rec
		s.subRec = rec
	}

	s.memSince = 0
	s.mask = missMask
	w.resetStack(s, frozen, pc, missMask)
	s.scope = scope
	s.waitDiv = true
	w.setState(s, WaitMem)
	s.pending = missMask

	w.assignOwner(hit, hitMask)
	w.assignOwner(s, missMask)
	w.addSplit(hit)
}

// tryRevive implements ReviveSplit's second trigger (§5.2): when the
// pipeline stalls, subdivide one suspended SIMD group whose outstanding
// requests have partially completed, letting the satisfied threads run.
func (w *WPU) tryRevive() bool {
	for _, s := range w.slots {
		if s == nil || s.state != WaitMem {
			continue
		}
		arrived := s.mask &^ s.pending
		if arrived.Empty() || s.pending.Empty() {
			continue
		}
		if !w.wstRoom() {
			return false
		}
		w.Stats.Revivals++
		w.Stats.MemSubdivisions++
		w.progress++
		scope := s.scope
		frozen := w.cfg.MemReconv == BranchLimited || !s.baseStack()
		if frozen {
			scope = &SyncScope{
				warp:         s.warp,
				reconvPC:     s.syncPC(),
				limitControl: w.cfg.MemReconv == BranchLimited,
				expected:     s.mask,
				frozen:       s.stack,
				parent:       s.scope,
			}
		}
		if w.trace != nil {
			w.emit(obs.EvRevive, s.warp.id, s.pc, arrived, s.pending)
		}
		ready := w.newSplit(s.warp, arrived, s.pc, scope)
		ready.state = Ready
		ready.prog = s.prog

		s.memSince = 0
		s.mask = s.pending
		w.resetStack(s, frozen, s.pc, s.mask)
		s.scope = scope

		w.addSplit(ready)
		w.postPCUpdate(ready)
		if ready.state == Ready && w.cfg.PCReconv {
			w.tryPCMerge(ready)
		}
		return true
	}
	return false
}

// onLineDone is the completion target for a split waiting on memory,
// following wait-merge forwarding so completions reach the surviving group.
func (s *Split) onLineDone(lanes Mask) {
	t := s
	for t.mergedInto != nil {
		t = t.mergedInto
	}
	t.pending &^= lanes
	if t.pending.Empty() && t.state == WaitMem {
		t.warp.wpu.becomeReady(t)
	}
}

// becomeReady transitions a split out of WaitMem, applying re-convergence.
func (w *WPU) becomeReady(s *Split) {
	w.closeSubdivRecord(s)
	w.setState(s, Ready)
	w.postPCUpdate(s)
	if s.state == Ready && w.cfg.PCReconv {
		w.tryPCMerge(s)
	}
}

// tryPCMerge implements PC-based re-convergence (§4.5): ready sibling
// splits of the same warp and scope whose PCs met re-unite into one wider
// SIMD group.
func (w *WPU) tryPCMerge(s *Split) {
	if !s.baseStack() {
		return
	}
	for {
		var other *Split
		for _, o := range s.warp.splits {
			if o == s || o.state != Ready || o.pc != s.pc || o.scope != s.scope || !o.baseStack() {
				continue
			}
			other = o
			break
		}
		if other == nil {
			return
		}
		target, victim := s, other
		if !s.resident && other.resident {
			target, victim = other, s
		}
		target.mask |= victim.mask
		target.stack[0].Mask = target.mask
		if victim.prog > target.prog {
			target.prog = victim.prog
			w.syncProg(target)
		}
		for _, e := range victim.slipped {
			e.split = target
		}
		target.slipped = append(target.slipped, victim.slipped...)
		target.parked = append(target.parked, victim.parked...)
		victim.slipped = nil
		victim.parked = nil
		victim.scope = nil // do not disturb the scope on removal
		w.removeSplit(victim)
		w.Stats.PCMerges++
		if w.trace != nil {
			w.emit(obs.EvPCMerge, target.warp.id, target.pc, target.mask, victim.mask)
		}
		if target != s {
			// s was absorbed; continue merging from the survivor.
			s = target
		}
	}
}

// arriveAtScope parks a split's threads at its sync scope (stack-based
// re-convergence, §4.4; or the BranchLimited barrier at a branch, §5.3.1).
func (w *WPU) arriveAtScope(s *Split) {
	w.progress++
	w.promoteAllSlip(s)
	sc := s.scope
	if !sc.arrived.Empty() && sc.arrivedPC != s.pc {
		panic(fmt.Sprintf("wpu: %s arrives at scope{reconvPC=%d} at pc %d but earlier arrivals parked at %d",
			s, sc.reconvPC, s.pc, sc.arrivedPC))
	}
	if w.trace != nil {
		w.emit(obs.EvScopeArrive, s.warp.id, s.pc, s.mask, sc.expected)
	}
	sc.arrived |= s.mask
	sc.arrivedPC = s.pc
	s.scope = nil
	w.removeSplit(s)
	w.maybeCompleteScope(sc)
}

// maybeCompleteScope re-creates the frozen SIMD group once every expected
// thread has arrived (or halted), then resumes the conventional stack.
func (w *WPU) maybeCompleteScope(sc *SyncScope) {
	sc.expected &^= sc.warp.halted
	sc.arrived &^= sc.warp.halted
	if sc.arrived != sc.expected {
		return
	}
	w.Stats.ScopeMerges++
	if w.trace != nil {
		w.emit(obs.EvScopeMerge, sc.warp.id, sc.arrivedPC, sc.expected, 0)
	}
	merged := &Split{
		id:    w.nextSplitIDInc(),
		warp:  sc.warp,
		mask:  sc.expected,
		pc:    sc.arrivedPC,
		state: Ready,
		stack: sc.frozen,
		scope: sc.parent,
		born:  w.q.Now(),
	}
	if sc.expected.Empty() {
		merged.pc = sc.reconvPC
	}
	merged.tos().Mask = sc.expected
	w.addSplit(merged)
	w.postPCUpdate(merged)
	if merged.state == Ready && w.cfg.PCReconv {
		w.tryPCMerge(merged)
	}
}

func (w *WPU) nextSplitIDInc() int {
	w.nextSplitID++
	return w.nextSplitID
}
