// Program verifier: static checks over a built Program.
//
// The DWS mechanisms in internal/wpu (re-convergence stacks, warp-split
// table, PC merges) silently assume the program metadata they consume is
// right. A barrier on a divergent path deadlocks a warp; an ill-formed CFG
// breaks the post-dominator analysis the re-convergence points come from;
// a read of an undefined register or an out-of-bounds access computes
// garbage. Verify checks the CFG shape first and then runs its checks over
// the facts and analyses Build recorded (cfgFacts, the divergence verdicts,
// the access table and the cost model). It does not re-run the analyses to
// compare them with themselves: that can only fail under nondeterminism,
// which dwslint guards, and the analyses are pinned instead by their
// fuzzers, the differential oracles in the tests and the trace-backed
// concordance tests.
//
// Severity policy: structural problems that would make simulation wrong or
// crash (ill-formed CFG, unreachable code, reads of provably undefined
// registers, provable out-of-bounds accesses) are Err and fail Build.
// Hygiene findings (dead definitions, writes to the hardwired r0, barriers
// that are merely *potentially* under divergence) are Warn: Build tolerates
// them, MustVerify does not. The warp-uniform branch-over-barrier idiom is
// legal at runtime, so it must not be a build error — but the eight
// benchmarks are held to the stricter MustVerify bar.
package program

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Severity classifies a verifier finding.
type Severity uint8

const (
	// Warn marks hygiene findings: tolerated by Build, rejected by
	// MustVerify.
	Warn Severity = iota
	// Err marks structural findings that make the program unsafe to
	// simulate; Build fails on any of these.
	Err
)

// String returns "warn" or "error".
func (s Severity) String() string {
	if s == Err {
		return "error"
	}
	return "warn"
}

// Finding is one verifier diagnostic.
type Finding struct {
	// Check names the analysis that produced the finding (e.g.
	// "reconvergence", "def-use").
	Check    string
	Severity Severity
	// PC is the instruction index the finding refers to, or -1.
	PC int
	// Block is the basic-block ID the finding refers to, or -1.
	Block int
	Msg   string
}

// String renders the finding in the human-readable form the dwsverify
// command prints.
func (f Finding) String() string {
	var loc strings.Builder
	if f.PC >= 0 {
		fmt.Fprintf(&loc, " @pc %d", f.PC)
	}
	if f.Block >= 0 {
		fmt.Fprintf(&loc, " (B%d)", f.Block)
	}
	return fmt.Sprintf("[%s] %s%s: %s", f.Severity, f.Check, loc.String(), f.Msg)
}

// FormatFindings renders findings one per line.
func FormatFindings(fs []Finding) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString("  ")
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Verify runs every static check and returns the findings, sorted
// deterministically. A nil result means the program passed clean.
//
// If the CFG itself is ill-formed (shape errors), only the shape findings
// are returned: the facts and analyses assume a well-formed block
// structure.
func (p *Program) Verify() []Finding {
	if fs := p.checkShape(); len(fs) > 0 {
		sortFindings(fs)
		return fs
	}
	return p.check()
}

// check runs the checks that read the recorded facts and analyses.
func (p *Program) check() []Finding {
	var fs []Finding
	fs = append(fs, p.checkReachability()...)
	fs = append(fs, p.checkDefUse()...)
	fs = append(fs, p.checkDeadDefs()...)
	fs = append(fs, p.checkBarriers()...)
	fs = append(fs, p.checkBounds()...)
	fs = append(fs, p.checkMemAccess()...)
	fs = append(fs, p.checkCostModel()...)
	sortFindings(fs)
	return fs
}

// checkCostModel checks the interval invariants every bound of the
// recorded cost model (costmodel.go) must satisfy: Lo <= Hi and Lo >= 0.
func (p *Program) checkCostModel() []Finding {
	m := p.cost
	var fs []Finding
	add := func(pc, blk int, what string, iv CostInterval) {
		if iv.Lo > iv.Hi || iv.Lo < 0 {
			fs = append(fs, Finding{
				PC: pc, Block: blk, Severity: Err, Check: "costmodel",
				Msg: fmt.Sprintf("%s bound inverted or negative: %s", what, iv),
			})
		}
	}
	add(-1, -1, "tick", m.Ticks)
	for i, b := range m.Buckets {
		add(-1, -1, "bucket "+CostBucketLabels[i], b)
	}
	for _, bc := range m.Blocks {
		add(-1, bc.ID, "block execution", bc.Execs)
	}
	for _, lc := range m.Loops {
		add(lc.HeaderPC, lc.Header, "trip", lc.Trips)
	}
	for pc, iv := range m.Issues {
		add(pc, -1, "issue", iv)
	}
	return fs
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].PC != fs[j].PC {
			return fs[i].PC < fs[j].PC
		}
		if fs[i].Block != fs[j].Block {
			return fs[i].Block < fs[j].Block
		}
		if fs[i].Check != fs[j].Check {
			return fs[i].Check < fs[j].Check
		}
		return fs[i].Msg < fs[j].Msg
	})
}

// checkShape validates the CFG's structural invariants: blocks tile the
// code, terminators appear only at block ends, successor edges match the
// terminators, and every register index is architectural. All its findings
// are Err; if any are present the rest of the verifier is skipped.
func (p *Program) checkShape() []Finding {
	var fs []Finding
	add := func(pc, blk int, format string, args ...any) {
		fs = append(fs, Finding{
			Check: "cfg-shape", Severity: Err, PC: pc, Block: blk,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	n := len(p.Code)
	if n == 0 {
		add(-1, -1, "empty program")
		return fs
	}
	if len(p.Blocks) == 0 {
		add(-1, -1, "no basic blocks")
		return fs
	}
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			add(pc, -1, "invalid opcode %d", uint8(in.Op))
			continue
		}
		if in.Op.WritesDst() && in.Dst >= isa.NumRegs {
			add(pc, -1, "destination register r%d out of range", in.Dst)
		}
		if in.Op.ReadsA() && in.SrcA >= isa.NumRegs {
			add(pc, -1, "source register r%d out of range", in.SrcA)
		}
		if in.Op.ReadsB() && in.SrcB >= isa.NumRegs {
			add(pc, -1, "source register r%d out of range", in.SrcB)
		}
		if in.Op.IsControl() && (in.Target < 0 || in.Target >= n) {
			add(pc, -1, "branch target %d out of range", in.Target)
		}
	}
	if len(fs) > 0 {
		return fs
	}

	if p.Blocks[0].Start != 0 {
		add(-1, 0, "entry block starts at pc %d, not 0", p.Blocks[0].Start)
	}
	next := 0
	startToID := make(map[int]int, len(p.Blocks))
	for i, blk := range p.Blocks {
		if blk.ID != i {
			add(-1, i, "block ID %d at index %d", blk.ID, i)
		}
		if blk.Start != next || blk.End <= blk.Start || blk.End > n {
			add(-1, i, "blocks do not tile the code: B%d spans [%d,%d), expected start %d",
				i, blk.Start, blk.End, next)
		}
		startToID[blk.Start] = i
		next = blk.End
	}
	if next != n {
		add(-1, -1, "blocks cover %d of %d instructions", next, n)
	}
	if len(fs) > 0 {
		return fs
	}

	for _, blk := range p.Blocks {
		for pc := blk.Start; pc < blk.End-1; pc++ {
			op := p.Code[pc].Op
			if op.IsControl() || op == isa.HALT {
				add(pc, blk.ID, "terminator %s in the middle of a basic block", op)
			}
		}
		last := p.Code[blk.End-1]
		var want []int
		switch {
		case last.Op.IsBranch():
			if blk.End < n {
				want = append(want, startToID[blk.End])
			}
			t, ok := startToID[last.Target]
			if !ok {
				add(blk.End-1, blk.ID, "branch target pc %d is not a block leader", last.Target)
				continue
			}
			if len(want) == 0 || want[0] != t {
				want = append(want, t)
			}
		case last.Op == isa.JMP:
			t, ok := startToID[last.Target]
			if !ok {
				add(blk.End-1, blk.ID, "jump target pc %d is not a block leader", last.Target)
				continue
			}
			want = []int{t}
		case last.Op == isa.HALT:
			// Exit block: no successors.
		default:
			if blk.End >= n {
				add(blk.End-1, blk.ID, "control falls off the end of the program")
				continue
			}
			want = []int{startToID[blk.End]}
		}
		if len(want) != len(blk.Succ) {
			add(blk.End-1, blk.ID, "successor edges %v do not match terminator (want %v)", blk.Succ, want)
			continue
		}
		for i := range want {
			if blk.Succ[i] != want[i] {
				add(blk.End-1, blk.ID, "successor edges %v do not match terminator (want %v)", blk.Succ, want)
				break
			}
		}
	}
	return fs
}

// checkReachability flags unreachable basic blocks — dead code that the
// post-dominator analysis never exercised and the WPU can never execute.
func (p *Program) checkReachability() []Finding {
	var fs []Finding
	for i, blk := range p.Blocks {
		if !p.cfg.reach[i] {
			fs = append(fs, Finding{
				Check: "reachability", Severity: Err, PC: blk.Start, Block: i,
				Msg: fmt.Sprintf("unreachable block (dead code, pcs %d..%d)", blk.Start, blk.End-1),
			})
		}
	}
	return fs
}

func reconvName(pc int) string {
	if pc == NoIPdom {
		return "exit"
	}
	return fmt.Sprintf("%d", pc)
}

// instUses returns the registers an instruction reads.
func instUses(in isa.Inst) []isa.Reg {
	var uses []isa.Reg
	if in.Op.ReadsA() {
		uses = append(uses, in.SrcA)
	}
	if in.Op.ReadsB() && (!in.Op.ReadsA() || in.SrcB != in.SrcA) {
		uses = append(uses, in.SrcB)
	}
	return uses
}

// instDef returns the architectural register an instruction defines.
// Writes to the hardwired r0 are discarded by the register file, so they
// define nothing.
func instDef(in isa.Inst) (isa.Reg, bool) {
	if in.Op.WritesDst() && in.Dst != 0 {
		return in.Dst, true
	}
	return 0, false
}

// checkDefUse runs a forward must-be-defined dataflow analysis (intersection
// at joins) and flags reads of registers that are not defined on every path
// from entry. It only runs when the kernel declared its input registers
// (DeclareInputs/DeclareRegion): without the declared entry state every ABI
// input would be a false positive.
func (p *Program) checkDefUse() []Finding {
	if !p.inputsDeclared {
		return nil
	}
	const abiRegs = 0b1111 // r0 hardwired, r1 tid, r2 nthreads, r3 local idx
	in, _, _ := solveForward(p, uint32(abiRegs)|p.inputs, 0,
		func(b int, s *uint32) {
			for pc := p.Blocks[b].Start; pc < p.Blocks[b].End; pc++ {
				if d, ok := instDef(p.Code[pc]); ok {
					*s |= 1 << d
				}
			}
		},
		nil,
		func(_ int, dst, s *uint32) bool {
			old := *dst
			*dst &= *s
			return *dst != old
		})
	var fs []Finding
	for i, blk := range p.Blocks {
		if !p.cfg.reach[i] {
			continue
		}
		s := in[i]
		for pc := blk.Start; pc < blk.End; pc++ {
			inst := p.Code[pc]
			for _, r := range instUses(inst) {
				if r != 0 && s&(1<<r) == 0 {
					fs = append(fs, Finding{
						Check: "def-use", Severity: Err, PC: pc, Block: i,
						Msg: fmt.Sprintf("r%d may be read before it is defined", r),
					})
				}
			}
			if d, ok := instDef(inst); ok {
				s |= 1 << d
			}
		}
	}
	return fs
}

// checkDeadDefs runs backward liveness and flags definitions whose value can
// never be read, plus writes to the hardwired r0. Both are Warn: harmless
// at runtime, but in a hand-written benchmark they usually mean the kernel
// does not compute what its author thought.
func (p *Program) checkDeadDefs() []Finding {
	n := len(p.Blocks)
	reach := p.cfg.reach
	liveIn := make([]uint32, n)
	blockLive := func(i int) uint32 {
		var live uint32
		for _, s := range p.Blocks[i].Succ {
			live |= liveIn[s]
		}
		return live
	}
	stepBack := func(inst isa.Inst, live uint32) uint32 {
		if d, ok := instDef(inst); ok {
			live &^= 1 << d
		}
		for _, r := range instUses(inst) {
			live |= 1 << r
		}
		return live
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			if !reach[i] {
				continue
			}
			live := blockLive(i)
			for pc := p.Blocks[i].End - 1; pc >= p.Blocks[i].Start; pc-- {
				live = stepBack(p.Code[pc], live)
			}
			if live != liveIn[i] {
				liveIn[i] = live
				changed = true
			}
		}
	}
	var fs []Finding
	for i := 0; i < n; i++ {
		if !reach[i] {
			continue
		}
		live := blockLive(i)
		for pc := p.Blocks[i].End - 1; pc >= p.Blocks[i].Start; pc-- {
			inst := p.Code[pc]
			if inst.Op.WritesDst() {
				switch {
				case inst.Dst == 0:
					fs = append(fs, Finding{
						Check: "dead-def", Severity: Warn, PC: pc, Block: i,
						Msg: "write to the hardwired r0 has no effect",
					})
				case live&(1<<inst.Dst) == 0:
					fs = append(fs, Finding{
						Check: "dead-def", Severity: Warn, PC: pc, Block: i,
						Msg: fmt.Sprintf("r%d defined here is never read", inst.Dst),
					})
				}
			}
			live = stepBack(inst, live)
		}
	}
	return fs
}

// checkBarriers flags barriers inside the divergence region of a branch
// the divergence analysis does not prove warp-uniform — the same verdict
// the WPU uses to decide whether the branch can split a warp — the
// deadlock DWS must never create (§3.4): if the warp splits at the branch,
// only some lanes arrive at the barrier while the rest wait beyond its
// re-convergence point. The analysis cannot see every warp-uniform tid
// predicate (e.g. a branch every lane of a warp takes the same way), so
// the finding is Warn, not Err.
func (p *Program) checkBarriers() []Finding {
	var barriers []int
	for pc, in := range p.Code {
		if in.Op == isa.BARRIER {
			barriers = append(barriers, pc)
		}
	}
	if len(barriers) == 0 {
		return nil
	}
	blockOf := p.cfg.blockOf
	// flagged[barrier pc] -> lowest divergent branch pc that reaches it.
	flagged := make(map[int]int)
	for pc, in := range p.Code {
		region := p.cfg.region[blockOf[pc]]
		if !in.Op.IsBranch() || region == nil || p.branches[pc].Uniform {
			continue
		}
		for _, q := range barriers {
			if _, dup := flagged[q]; !dup && region.has(blockOf[q]) {
				flagged[q] = pc
			}
		}
	}
	var fs []Finding
	for _, q := range barriers {
		if br, ok := flagged[q]; ok {
			fs = append(fs, Finding{
				Check: "barrier-divergence", Severity: Warn, PC: q, Block: blockOf[q],
				Msg: fmt.Sprintf("barrier reachable under potentially divergent branch @pc %d before re-convergence: a warp whose lanes disagree there deadlocks here", br),
			})
		}
	}
	return fs
}

// checkBounds consumes the exact-affine component of the divergence
// analysis (dataflow.go, the vExact kind) and flags loads/stores whose
// effective address provably falls outside the declared memory region for
// every launch of up to DeclareThreads threads. It only fires where the
// address is region-relative and affine in the thread id with exact
// constant coefficients; anything data-dependent is left to the functional
// checks.
func (p *Program) checkBounds() []Finding {
	if len(p.regions) == 0 {
		return nil
	}
	var fs []Finding
	for _, a := range p.addrs {
		if f, bad := p.boundsAt(a.pc, a.block, a.val, a.imm); bad {
			fs = append(fs, f)
		}
	}
	return fs
}

// checkMemAccess cross-checks the access-pattern table (memaccess.go) —
// the table the WPU's subdivide-on-miss hints and per-pc transaction
// bounds are derived from — against the exact-affine bounds domain, a
// different abstraction of the same address: where the address is exact
// with a tid coefficient, the recorded stride must equal that coefficient,
// and the recorded footprint must fit inside the bounds check's offset
// span for any launch of at least a warp's worth of threads.
func (p *Program) checkMemAccess() []Finding {
	var fs []Finding
	add := func(pc, blk int, format string, args ...any) {
		fs = append(fs, Finding{
			Check: "memaccess", Severity: Err, PC: pc, Block: blk,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	for i, a := range p.addrs {
		g := p.memAccess[i]
		if a.val.kind != vExact {
			continue
		}
		if a.val.stride() != g.StrideBytes {
			add(g.PC, a.block, "bounds domain tid coefficient %d, recorded stride %d", a.val.stride(), g.StrideBytes)
			continue
		}
		// Footprint vs the bounds-check offset span: with block-distributed
		// consecutive lane tids, one warp's span is a sub-range of the
		// whole launch's, so the footprint may never exceed it.
		if g.FootprintBytes >= 0 && a.val.ct != 0 && p.maxThreads >= DefaultMemParams.Lanes {
			span := a.val.ct * int64(p.maxThreads-1)
			if span < 0 {
				span = -span
			}
			if g.FootprintBytes > span+isa.WordSize {
				add(g.PC, a.block, "footprint %d B exceeds the bounds-domain span %d B for %d threads",
					g.FootprintBytes, span+isa.WordSize, p.maxThreads)
			}
		}
	}
	return fs
}

func (p *Program) boundsAt(pc, blk int, a absVal, imm int64) (Finding, bool) {
	if a.kind != vExact || a.region < 0 {
		return Finding{}, false
	}
	if a.ct != 0 && p.maxThreads <= 0 {
		return Finding{}, false // thread count undeclared: range unbounded
	}
	off := a.c0 + imm
	lo, hi := off, off
	if a.ct != 0 {
		span := a.ct * int64(p.maxThreads-1)
		if span < 0 {
			lo += span
		} else {
			hi += span
		}
	}
	size := p.regions[a.region].Words * isa.WordSize
	if lo >= 0 && hi+isa.WordSize <= size {
		return Finding{}, false
	}
	return Finding{
		Check: "mem-bounds", Severity: Err, PC: pc, Block: blk,
		Msg: fmt.Sprintf("access offset range [%d,%d] exceeds region r%d (%d bytes, %d words)",
			lo, hi+isa.WordSize-1, p.regions[a.region].Reg, size, p.regions[a.region].Words),
	}, true
}
