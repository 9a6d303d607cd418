package program

import (
	"fmt"
	"slices"
)

// Differential oracle for the dominance facts (cfg.go). Production computes
// dominators and post-dominators with one bitset set-fixpoint; the oracle
// here is a deliberately different algorithm, Cooper-Harvey-Kennedy ("A
// Simple, Fast Dominance Algorithm"), run forward from the entry and on
// the reverse graph from a virtual exit.

// chkIdom returns the immediate dominator of every node of the graph
// given by succ, rooted at root: idom[root] = root, and -1 for nodes the
// root does not reach.
func chkIdom(succ [][]int, root int) []int {
	n := len(succ)
	preds := make([][]int, n)
	for v, ss := range succ {
		for _, s := range ss {
			preds[s] = append(preds[s], v)
		}
	}
	po := make([]int, n)
	visited := make([]bool, n)
	order := make([]int, 0, n) // postorder of the DFS from root
	type frame struct{ v, i int }
	stack := []frame{{root, 0}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(succ[f.v]) {
			u := succ[f.v][f.i]
			f.i++
			if !visited[u] {
				visited[u] = true
				stack = append(stack, frame{u, 0})
			}
		} else {
			po[f.v] = len(order)
			order = append(order, f.v)
			stack = stack[:len(stack)-1]
		}
	}

	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int) int {
		for a != b {
			for po[a] < po[b] {
				a = idom[a]
			}
			for po[b] < po[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		// Reverse postorder, skipping the root (last in postorder).
		for i := len(order) - 2; i >= 0; i-- {
			v := order[i]
			newIdom := -1
			for _, u := range preds[v] {
				if idom[u] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = u
				} else {
					newIdom = intersect(newIdom, u)
				}
			}
			if newIdom >= 0 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// oracleDominance recomputes, for the reachable part of the block graph,
// the immediate dominators (rooted at the entry) and the immediate
// post-dominators (rooted at a virtual exit with ID len(blocks) that
// every exit block feeds). A block the root does not reach gets -1.
func oracleDominance(blocks []Block) (idom, ipdom []int) {
	n := len(blocks)
	fwd := make([][]int, n)
	for v, blk := range blocks {
		fwd[v] = blk.Succ
	}
	idom = chkIdom(fwd, 0)
	rev := make([][]int, n+1)
	for v, blk := range blocks {
		if idom[v] < 0 {
			continue // unreachable: outside the analysed graph
		}
		if len(blk.Succ) == 0 {
			rev[n] = append(rev[n], v)
		}
		for _, s := range blk.Succ {
			rev[s] = append(rev[s], v)
		}
	}
	ipdom = chkIdom(rev, n)[:n]
	return idom, ipdom
}

// chkIPdom is the oracle's immediate post-dominator per block in the
// convention of cfgFacts.ipdom: -1 when only the virtual exit
// post-dominates the block or it cannot terminate.
func chkIPdom(blocks []Block) []int {
	_, ipdom := oracleDominance(blocks)
	out := make([]int, len(blocks))
	for v, d := range ipdom {
		out[v] = d
		if d == len(blocks) {
			out[v] = -1
		}
	}
	return out
}

// chainSet is the dominator set the idom tree implies for v: v and its
// ancestors below stop. A node outside the tree dominates only itself.
func chainSet(idom []int, v, stop int) []int {
	set := []int{v}
	for u := v; idom[u] >= 0 && idom[u] != u && idom[u] != stop; u = idom[u] {
		set = append(set, idom[u])
	}
	slices.Sort(set)
	return set
}

func members(s bitset, n int) []int {
	var out []int
	for v := 0; v < n; v++ {
		if s.has(v) {
			out = append(out, v)
		}
	}
	return out
}

// checkDominanceFacts compares the production dominator sets,
// post-dominator sets and ipdom of f against the CHK oracle, returning a
// description of the first disagreement.
func checkDominanceFacts(blocks []Block, f *cfgFacts) error {
	n := len(blocks)
	idom, ipdom := oracleDominance(blocks)
	for v := 0; v < n; v++ {
		if got, want := members(f.dom[v], n), chainSet(idom, v, -1); !slices.Equal(got, want) {
			return fmt.Errorf("B%d: dominators %v, CHK says %v", v, got, want)
		}
		if got, want := members(f.pdom[v], n), chainSet(ipdom, v, n); !slices.Equal(got, want) {
			return fmt.Errorf("B%d: post-dominators %v, CHK says %v", v, got, want)
		}
		want := ipdom[v]
		if want == n {
			want = -1
		}
		if f.ipdom[v] != want {
			return fmt.Errorf("B%d: ipdom %d, CHK says %d", v, f.ipdom[v], want)
		}
	}
	return nil
}
