// Control-flow facts: the block graph and everything derived from its
// shape alone, computed once per Program at Build and read by every
// analysis (divergence, access table, cost bounds, verifier checks), plus
// the one forward dataflow solver those analyses instantiate.
package program

import (
	"math/bits"
	"slices"

	"repro/internal/isa"
)

// buildCFG partitions the code into basic blocks and records successor
// edges. Block IDs are assigned in code order.
func buildCFG(code []isa.Inst) []Block {
	leader := make([]bool, len(code))
	leader[0] = true
	for pc, in := range code {
		switch {
		case in.Op.IsBranch():
			leader[in.Target] = true
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		case in.Op == isa.JMP:
			leader[in.Target] = true
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		case in.Op == isa.HALT:
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		}
	}

	var blocks []Block
	startToID := make(map[int]int)
	for pc := 0; pc < len(code); {
		end := pc + 1
		for end < len(code) && !leader[end] {
			end++
		}
		id := len(blocks)
		startToID[pc] = id
		blocks = append(blocks, Block{ID: id, Start: pc, End: end})
		pc = end
	}

	for i := range blocks {
		blk := &blocks[i]
		lastPC := blk.End - 1
		in := code[lastPC]
		switch {
		case in.Op.IsBranch():
			// Fallthrough first, then taken: deterministic order.
			if blk.End < len(code) {
				blk.Succ = append(blk.Succ, startToID[blk.End])
			}
			t := startToID[in.Target]
			if len(blk.Succ) == 0 || blk.Succ[0] != t {
				blk.Succ = append(blk.Succ, t)
			}
		case in.Op == isa.JMP:
			blk.Succ = append(blk.Succ, startToID[in.Target])
		case in.Op == isa.HALT:
			// Exit block: no successors.
		default:
			if blk.End < len(code) {
				blk.Succ = append(blk.Succ, startToID[blk.End])
			}
		}
	}
	return blocks
}

// bitset is a set of block IDs.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (s bitset) has(v int) bool { return s[v/64]&(1<<(v%64)) != 0 }
func (s bitset) add(v int)      { s[v/64] |= 1 << (v % 64) }

func (s bitset) count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// cfgFacts holds the compile-time facts of the block graph. Build computes
// them once, after the shape check, and nothing recomputes them: the
// divergence analysis, the access table, every cost model and the verifier
// all read this one value.
type cfgFacts struct {
	blockOf []int   // pc -> block ID
	reach   []bool  // reachable from the entry block
	preds   [][]int // predecessors (reachable ones), in ID order
	// dom and pdom are the dominator and post-dominator sets of the
	// reachable blocks (dominance); a block that cannot terminate
	// post-dominates only itself.
	dom, pdom []bitset
	// ipdom is each block's immediate post-dominator, -1 when only the
	// virtual exit post-dominates it or it cannot terminate.
	ipdom []int
	// loops are the natural loops by header ID; irreducible marks blocks
	// in cycles no dominating header explains.
	loops       []loop
	irreducible []bool
	// cycles are the cyclic strongly connected components (loop widening
	// in the divergence analysis works on these, so irreducible cycles are
	// covered too).
	cycles [][]int
	// region[b], for a reachable block ending in a two-way branch, is the
	// branch's divergence region: the blocks reachable from its successors
	// before its immediate post-dominator. nil elsewhere.
	region []bitset
}

// loop is one natural loop (back edges grouped by header).
type loop struct {
	header   int
	inLoop   []bool
	backSrcs []int
}

func newCFGFacts(blocks []Block, ncode int) *cfgFacts {
	n := len(blocks)
	f := &cfgFacts{blockOf: make([]int, ncode), reach: make([]bool, n), preds: make([][]int, n)}
	for _, blk := range blocks {
		for pc := blk.Start; pc < blk.End; pc++ {
			f.blockOf[pc] = blk.ID
		}
	}
	f.reach[0] = true
	for stack := []int{0}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blocks[v].Succ {
			if !f.reach[s] {
				f.reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	for i, blk := range blocks {
		if f.reach[i] {
			for _, s := range blk.Succ {
				f.preds[s] = append(f.preds[s], i)
			}
		}
	}
	f.dom = dominance(f.reach, func(v int) []int { return f.preds[v] }, func(v int) bool { return v == 0 })
	f.pdom = dominance(f.reach, func(v int) []int { return blocks[v].Succ }, func(v int) bool { return len(blocks[v].Succ) == 0 })
	f.ipdom = make([]int, n)
	for v := range f.ipdom {
		f.ipdom[v] = closest(f.pdom, v)
	}
	f.loops, f.irreducible = f.naturalLoops(blocks)
	f.cycles = cyclicSCCs(blocks)
	f.region = make([]bitset, n)
	for b, blk := range blocks {
		if !f.reach[b] || len(blk.Succ) < 2 {
			continue
		}
		region := newBitset(n)
		stack := append([]int(nil), blk.Succ...)
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if w == f.ipdom[b] || region.has(w) {
				continue
			}
			region.add(w)
			stack = append(stack, blocks[w].Succ...)
		}
		f.region[b] = region
	}
	return f
}

// dominance is the one dominator routine: the maximal fixpoint of
//
//	D(v) = {v} ∪ ⋂ D(u) over the in-edges u of v
//
// over the live blocks, as bitsets (kernels are tens of blocks, so the
// O(n²) formulation is simple and fast enough). With predecessors as
// in-edges and the entry as root it gives dominators; with successors and
// the exit blocks as roots, post-dominators. A live block that no root
// reaches along its in-edges (for post-dominance: one that cannot
// terminate) has only the vacuous full set as its fixpoint, so it gets
// just itself and no guarantee is derived from it.
func dominance(live []bool, in func(v int) []int, root func(v int) bool) []bitset {
	n := len(live)
	rooted := make([]bool, n)
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if rooted[v] || !live[v] {
				continue
			}
			if root(v) || slices.ContainsFunc(in(v), func(u int) bool { return rooted[u] }) {
				rooted[v] = true
				changed = true
			}
		}
	}
	full := newBitset(n)
	for v := 0; v < n; v++ {
		if rooted[v] {
			full.add(v)
		}
	}
	sets := make([]bitset, n)
	for v := range sets {
		sets[v] = newBitset(n)
		if rooted[v] && !root(v) {
			copy(sets[v], full)
		}
		sets[v].add(v)
	}
	tmp := newBitset(n)
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if !rooted[v] || root(v) {
				continue
			}
			copy(tmp, full)
			for _, u := range in(v) {
				if !rooted[u] {
					continue
				}
				for i := range tmp {
					tmp[i] &= sets[u][i]
				}
			}
			tmp.add(v)
			if !slices.Equal(tmp, sets[v]) {
				copy(sets[v], tmp)
				changed = true
			}
		}
	}
	return sets
}

// closest returns v's immediate dominator under sets: of its strict
// dominators (a chain), the one with the largest set. -1 when there is
// none.
func closest(sets []bitset, v int) int {
	best, bestSize := -1, -1
	for c := range sets {
		if c == v || !sets[v].has(c) {
			continue
		}
		if sz := sets[c].count(); sz > bestSize {
			best, bestSize = c, sz
		}
	}
	return best
}

// naturalLoops finds back edges (u→h with h dominating u) and builds the
// natural loop of each header, in header order. It also reports which
// reachable blocks sit in irreducible cycles: remove the back edges and
// Kahn-toposort; whatever cannot be ordered is in a cycle no dominating
// header explains.
func (f *cfgFacts) naturalLoops(blocks []Block) (loops []loop, irreducible []bool) {
	n := len(blocks)
	for h := 0; h < n; h++ {
		var srcs []int
		for _, u := range f.preds[h] {
			if f.dom[u].has(h) {
				srcs = append(srcs, u)
			}
		}
		if len(srcs) == 0 {
			continue
		}
		lp := loop{header: h, inLoop: make([]bool, n), backSrcs: srcs}
		lp.inLoop[h] = true
		stack := append([]int(nil), srcs...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if lp.inLoop[v] {
				continue
			}
			lp.inLoop[v] = true
			stack = append(stack, f.preds[v]...)
		}
		loops = append(loops, lp)
	}

	irreducible = make([]bool, n)
	indeg := make([]int, n)
	var q []int
	for v := 0; v < n; v++ {
		if !f.reach[v] {
			continue
		}
		for _, u := range f.preds[v] {
			if !f.dom[u].has(v) {
				indeg[v]++
			}
		}
		if indeg[v] == 0 {
			q = append(q, v)
		}
	}
	for len(q) > 0 {
		v := q[len(q)-1]
		q = q[:len(q)-1]
		for _, s := range blocks[v].Succ {
			if f.dom[v].has(s) {
				continue // back edge
			}
			if indeg[s]--; indeg[s] == 0 {
				q = append(q, s)
			}
		}
	}
	for v := 0; v < n; v++ {
		irreducible[v] = f.reach[v] && indeg[v] > 0
	}
	return loops, irreducible
}

// cyclicSCCs returns the strongly connected components of the block graph
// that contain a cycle: more than one block, or a self-loop (iterative
// Tarjan; deterministic order).
func cyclicSCCs(blocks []Block) [][]int {
	n := len(blocks)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		sccs    [][]int
		stack   []int
		counter int
	)
	type frame struct {
		v, succIdx int
	}
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		work := []frame{{root, 0}}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.succIdx < len(blocks[f.v].Succ) {
				w := blocks[f.v].Succ[f.succIdx]
				f.succIdx++
				if index[w] < 0 {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			work = work[:len(work)-1]
			if len(work) > 0 {
				if u := work[len(work)-1].v; low[v] < low[u] {
					low[u] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				if len(scc) > 1 || slices.Contains(blocks[v].Succ, v) {
					sccs = append(sccs, scc)
				}
			}
		}
	}
	return sccs
}

// solveForward is the one forward dataflow solver: round-robin sweeps over
// the reachable blocks in ID order, each visited block's out-state flowing
// to its successors, until no entry state changes. Block 0 enters with
// entry. step applies block b's transfer function in place to a copy of
// its entry state. A successor visited for the first time takes the
// out-state as its entry state, then enter (when non-nil) adjusts it;
// later arrivals are merged in place by join, which reports whether the
// entry state changed. Blocks never reached keep seen false. With
// maxSweeps > 0 the solver gives up after that many changing sweeps and
// reports capped, leaving the caller to force a sound top. States are
// passed by pointer because they are register files of a kilobyte or so.
func solveForward[S any](p *Program, entry S, maxSweeps int,
	step func(b int, s *S),
	enter func(b int, s *S),
	join func(b int, dst, s *S) bool,
) (in []S, seen []bool, capped bool) {
	n := len(p.Blocks)
	in = make([]S, n)
	seen = make([]bool, n)
	in[0], seen[0] = entry, true
	s := new(S) // one out-state per solve: its address escapes into step and join
	for sweep := 0; ; sweep++ {
		changed := false
		for b := 0; b < n; b++ {
			if !p.cfg.reach[b] || !seen[b] {
				continue
			}
			*s = in[b]
			step(b, s)
			for _, su := range p.Blocks[b].Succ {
				switch {
				case !seen[su]:
					in[su], seen[su] = *s, true
					if enter != nil {
						enter(su, &in[su])
					}
					changed = true
				case join(su, &in[su], s):
					changed = true
				}
			}
		}
		if !changed {
			return in, seen, false
		}
		if maxSweeps > 0 && sweep >= maxSweeps {
			return in, seen, true
		}
	}
}
