package mem

import (
	"repro/internal/engine"
	"repro/internal/obs"
)

// L2Config sizes the shared last-level cache.
type L2Config struct {
	SizeBytes int
	Ways      int // 0 = fully associative
	LineSize  uint64
	// LookupLat is the tag+data lookup latency (the paper sweeps this from
	// 10 to 300 cycles in Figure 16).
	LookupLat engine.Cycle
	// ProbeLat is the extra round-trip charged when the directory must
	// invalidate or downgrade a remote L1 copy before answering.
	ProbeLat engine.Cycle
	MSHRs    int
}

// L2Stats counts events observed by the shared L2 and its directory.
type L2Stats struct {
	Requests    uint64
	Hits        uint64
	Misses      uint64
	Merges      uint64 // requests coalesced into an in-flight fetch
	ProbeInvals uint64 // directory-initiated L1 invalidations
	ProbeDowngr uint64 // directory-initiated L1 downgrades
	Evictions   uint64
	Writebacks  uint64 // dirty evictions to memory
	InclInvals  uint64 // inclusive-eviction invalidations of L1 copies
	MSHRPeak    uint64 // high-water mark of simultaneously busy MSHRs
	// MSHRFull counts misses that queued behind an unrelated in-flight
	// fetch because every MSHR was busy (the L2 is un-banked, so this is
	// its only structural-conflict source; bank conflicts are an L1Stats
	// counter).
	MSHRFull uint64
}

// l2Req is one L1 request queued at the directory. The grant is delivered
// synchronously into the requesting L1 via grantReply — L1 coherence state
// must install atomically with the directory decision or later grants could
// race it — together with the probe penalty the requester must add to its
// completion time.
type l2Req struct {
	from     int
	lineAddr uint64
	write    bool
}

type l2MSHR struct {
	lineAddr uint64
	born     engine.Cycle // allocation time, for the residency histogram
	reqs     []l2Req
}

// L2 is the inclusive shared last-level cache with a full-map directory
// implementing MESI over the private L1s. Directory state lives in the line
// frames (sharers bitmask + owner).
type L2 struct {
	q    *engine.Queue
	st   *store
	cfg  L2Config
	dram *DRAM
	l1s  []*L1

	mshrs    mshrTable[*l2MSHR]
	mshrPool []*l2MSHR // free list; retired MSHRs keep their reqs capacity

	// lookups is the tag-pipeline FIFO: LookupLat is constant, so requests
	// finish the lookup in issue order and the pre-bound lookupHop handler
	// just pops the front — no per-request closure.
	lookups    []l2Req
	lookupHead int
	lookupHop  l2LookupHop
	fillHop    l2FillHop

	trace *obs.Trace // per-System observability sink (nil = disabled)

	Stats L2Stats
}

type l2LookupHop struct{ l *L2 }
type l2FillHop struct{ l *L2 }

func (hp *l2LookupHop) HandleEvent(uint64) {
	l := hp.l
	r := l.lookups[l.lookupHead]
	l.lookups[l.lookupHead] = l2Req{}
	l.lookupHead++
	if l.lookupHead == len(l.lookups) {
		l.lookups = l.lookups[:0]
		l.lookupHead = 0
	}
	if w := l.st.lookup(r.lineAddr); w != nil {
		l.Stats.Hits++
		l.grant(w, r)
		return
	}
	l.missPath(r.lineAddr, r)
}

func (hp *l2FillHop) HandleEvent(lineAddr uint64) {
	m, _ := hp.l.mshrs.get(lineAddr)
	hp.l.fill(m)
}

// NewL2 builds the shared cache in front of dram. trace is the per-System
// observability sink; nil disables event emission.
func NewL2(q *engine.Queue, cfg L2Config, dram *DRAM, trace *obs.Trace) *L2 {
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 1
	}
	l := &L2{
		q:     q,
		st:    newStore(cfg.SizeBytes, cfg.Ways, cfg.LineSize),
		cfg:   cfg,
		dram:  dram,
		mshrs: newMSHRTable[*l2MSHR](cfg.MSHRs),
		trace: trace,
	}
	l.lookupHop = l2LookupHop{l}
	l.fillHop = l2FillHop{l}
	return l
}

func (l *L2) attach(c *L1) {
	if c.ID != len(l.l1s) {
		panic("mem: L1 IDs must be attached in order")
	}
	l.l1s = append(l.l1s, c)
}

// Request is called (already delayed by the crossbar) when an L1 misses.
// The requester's grantReply is invoked with the granted MESI state once the
// directory can satisfy the request; the requester adds the return crossbar
// hop.
func (l *L2) Request(from int, lineAddr uint64, write bool) {
	l.Stats.Requests++
	l.lookups = append(l.lookups, l2Req{from: from, lineAddr: lineAddr, write: write})
	l.q.ScheduleAfter(l.cfg.LookupLat, &l.lookupHop, 0)
}

// grant runs the directory protocol for one request against a present line
// and schedules the reply (plus probe latency when remote copies had to be
// revoked).
func (l *L2) grant(w *way, r l2Req) {
	var penalty engine.Cycle
	me := uint64(1) << uint(r.from)

	if r.write {
		if w.owner >= 0 && int(w.owner) != r.from {
			if l.l1s[w.owner].invalidateLine(w.lineAddr) {
				w.dirty = true
			}
			l.Stats.ProbeInvals++
			penalty = l.cfg.ProbeLat
		}
		if rem := w.sharers &^ me; rem != 0 {
			for id := 0; id < len(l.l1s); id++ {
				if rem&(1<<uint(id)) != 0 {
					l.l1s[id].invalidateLine(w.lineAddr)
					l.Stats.ProbeInvals++
				}
			}
			penalty = l.cfg.ProbeLat
		}
		w.sharers = 0
		w.owner = int8(r.from)
		l.finish(w, r, Modified, penalty)
		return
	}

	// Read request.
	switch {
	case w.owner >= 0 && int(w.owner) != r.from:
		if l.l1s[w.owner].downgradeLine(w.lineAddr) {
			w.dirty = true
		}
		l.Stats.ProbeDowngr++
		penalty = l.cfg.ProbeLat
		w.sharers |= (1 << uint(w.owner)) | me
		w.owner = -1
		l.finish(w, r, Shared, penalty)
	case w.owner == int8(r.from):
		// Requester already owns it (e.g. it evicted silently in a race);
		// re-grant exclusivity.
		l.finish(w, r, Exclusive, 0)
	case w.sharers == 0:
		w.owner = int8(r.from)
		l.finish(w, r, Exclusive, 0)
	default:
		w.sharers |= me
		l.finish(w, r, Shared, penalty)
	}
}

func (l *L2) finish(w *way, r l2Req, granted Coherence, penalty engine.Cycle) {
	l.st.touch(w)
	l.l1s[r.from].grantReply(r.lineAddr, granted, penalty)
}

func (l *L2) getMSHR() *l2MSHR {
	if n := len(l.mshrPool); n > 0 {
		m := l.mshrPool[n-1]
		l.mshrPool = l.mshrPool[:n-1]
		return m
	}
	return &l2MSHR{}
}

func (l *L2) putMSHR(m *l2MSHR) {
	*m = l2MSHR{reqs: m.reqs[:0]}
	l.mshrPool = append(l.mshrPool, m)
}

func (l *L2) missPath(lineAddr uint64, r l2Req) {
	if l.trace != nil {
		// The requesting L1's fill will come through DRAM (whether this
		// request fetches, merges, or queues); mark its MSHR so the L1
		// attributes the round trip to the right service-level histogram.
		if m1, ok := l.l1s[r.from].mshrs.get(lineAddr); ok {
			m1.viaDRAM = true
		}
	}
	if m, ok := l.mshrs.get(lineAddr); ok {
		l.Stats.Merges++
		m.reqs = append(m.reqs, r)
		return
	}
	l.Stats.Misses++
	if l.trace != nil {
		l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvL2Miss,
			Unit: r.from, Warp: -1, PC: -1, Addr: lineAddr})
	}
	// The L2 has 256 MSHRs (Table 3); at simulated scale the bound is never
	// the limiter, but respect it anyway by queuing behind the first
	// occupied table slot when full (bounded structures should stay
	// bounded). Slot order is deterministic, unlike the map range this
	// replaced.
	if l.mshrs.len() >= l.cfg.MSHRs {
		l.Stats.MSHRFull++
		l.mshrs.scan(func(_ uint64, m *l2MSHR) bool {
			m.reqs = append(m.reqs, r)
			return false
		})
		return
	}
	m := l.getMSHR()
	m.lineAddr = lineAddr
	m.born = l.q.Now()
	m.reqs = append(m.reqs, r)
	l.mshrs.put(lineAddr, m)
	if n := uint64(l.mshrs.len()); n > l.Stats.MSHRPeak {
		l.Stats.MSHRPeak = n
	}
	if l.trace != nil {
		l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvDRAMFetch,
			Unit: -1, Warp: -1, PC: -1, Addr: lineAddr})
	}
	l.dram.FetchEvent(&l.fillHop, lineAddr)
}

// fill installs a memory line and answers the queued requesters in order.
func (l *L2) fill(m *l2MSHR) {
	w := l.st.lookup(m.lineAddr)
	if w == nil {
		w = l.st.victim(m.lineAddr)
		l.evict(w)
		l.st.install(w, m.lineAddr)
		w.dirty = false
		w.sharers = 0
		w.owner = -1
	}
	l.mshrs.del(m.lineAddr)
	if l.trace != nil {
		l.trace.Hists.L2MSHRRes.Record(uint64(l.q.Now() - m.born))
	}
	for _, r := range m.reqs {
		l.grant(w, r)
	}
	l.putMSHR(m)
}

// evict releases an L2 frame. Inclusivity requires revoking any L1 copies;
// dirty data (local or flushed from an owner) is written back to memory.
func (l *L2) evict(w *way) {
	if !w.valid {
		return
	}
	l.Stats.Evictions++
	if w.owner >= 0 {
		if l.l1s[w.owner].invalidateLine(w.lineAddr) {
			w.dirty = true
		}
		l.Stats.InclInvals++
	}
	for id := 0; id < len(l.l1s) && w.sharers != 0; id++ {
		if w.sharers&(1<<uint(id)) != 0 {
			l.l1s[id].invalidateLine(w.lineAddr)
			l.Stats.InclInvals++
		}
	}
	if w.dirty {
		l.Stats.Writebacks++
		if l.trace != nil {
			l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvDRAMWriteback,
				Unit: -1, Warp: -1, PC: -1, Addr: w.lineAddr})
		}
		l.dram.Writeback()
	}
	l.st.invalidate(w)
	w.sharers = 0
	w.owner = -1
	w.dirty = false
}

// OutstandingMisses reports the number of busy MSHRs (the timeline
// sampler reads this as the L2 MSHR occupancy).
func (l *L2) OutstandingMisses() int { return l.mshrs.len() }

// put records an L1 eviction (clean or dirty) so the directory stays
// precise. Dirty data merges into the L2 copy.
func (l *L2) put(from int, lineAddr uint64, dirty bool) {
	w := l.st.lookup(lineAddr)
	if w == nil {
		// The L2 already evicted this line (the inclusive invalidation and
		// the L1's own eviction raced); the data went to memory then.
		return
	}
	me := uint64(1) << uint(from)
	w.sharers &^= me
	if w.owner == int8(from) {
		w.owner = -1
	}
	if dirty {
		w.dirty = true
	}
}

// dramReq is one fetch parked on the bus: the subscriber's pre-bound
// handler plus argument, released after the bus transfer and device latency.
type dramReq struct {
	h   engine.Handler
	arg uint64
}

// DRAM models main memory behind the L2: a fixed access latency plus a
// bandwidth-limited memory bus, with the controller pipelining requests
// (Table 3: 100-cycle latency, 16 GB/s bus).
type DRAM struct {
	q   *engine.Queue
	bus *Channel
	// Latency is the device access time charged after the bus transfer.
	Latency engine.Cycle

	// pending is the FIFO of in-flight fetches: the bus is FIFO (departure
	// order equals call order), so the pre-bound busHop handler pops the
	// front when each transfer arrives.
	pending []dramReq
	head    int
	busHop  dramBusHop

	Accesses   uint64
	WritebackN uint64
}

type dramBusHop struct{ d *DRAM }

func (hp *dramBusHop) HandleEvent(uint64) {
	d := hp.d
	r := d.pending[d.head]
	d.pending[d.head] = dramReq{}
	d.head++
	if d.head == len(d.pending) {
		d.pending = d.pending[:0]
		d.head = 0
	}
	d.q.ScheduleAfter(d.Latency, r.h, r.arg)
}

// NewDRAM builds the memory model on the given bus.
func NewDRAM(q *engine.Queue, bus *Channel, latency engine.Cycle) *DRAM {
	d := &DRAM{q: q, bus: bus, Latency: latency}
	d.busHop = dramBusHop{d}
	return d
}

// FetchEvent schedules h.HandleEvent(arg) after the bus queuing plus device
// latency — the allocation-free path.
func (d *DRAM) FetchEvent(h engine.Handler, arg uint64) {
	d.Accesses++
	d.pending = append(d.pending, dramReq{h: h, arg: arg})
	d.bus.SendEvent(&d.busHop, 0)
}

// Fetch schedules done after the bus queuing plus device latency.
func (d *DRAM) Fetch(done func()) {
	d.FetchEvent(engine.FuncHandler(done), 0)
}

// Writeback consumes bus bandwidth for an evicted dirty line; no one waits
// for it.
func (d *DRAM) Writeback() {
	d.Accesses++
	d.WritebackN++
	d.bus.Send(func() {})
}
