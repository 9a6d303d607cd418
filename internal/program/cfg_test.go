package program

import (
	"testing"
)

// buildIPdomCase assembles a kernel and returns (program, ipdom-by-block
// from the production facts, ipdom-by-block from the CHK oracle).
func buildIPdomCase(t *testing.T, name string, emit func(b *Builder)) (*Program, []int, []int) {
	t.Helper()
	b := NewBuilder(name)
	emit(b)
	p := b.MustBuild()
	return p, p.cfg.ipdom, chkIPdom(p.Blocks)
}

// TestIPdomEdgeCases drives the production dominance facts (the bitset
// set-fixpoint of cfg.go) and the Cooper-Harvey-Kennedy oracle
// (oracle_test.go) through the CFG shapes that historically break ipdom
// implementations, checks both against hand-derived answers, and checks
// the full dominator and post-dominator sets against the oracle.
func TestIPdomEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		emit func(b *Builder)
		// want[blockID] = expected immediate post-dominator block ID,
		// -1 when the paths only re-join at kernel termination.
		want []int
	}{
		{
			// A loop whose body has two distinct back-edges to the header:
			//
			//	B0 header:  bnez r1, exit
			//	B1 body:    bnez r2, header   (first back-edge)
			//	B2 tail:    jmp header        (second back-edge)
			//	B3 exit:    halt
			//
			// The header's ipdom is the exit block because every path out
			// of the loop funnels through it; both back-edge blocks have
			// the header itself as ipdom, since B1's only routes forward
			// (fallthrough to B2, back-edge to B0) re-join at the header.
			name: "loop with two back-edges",
			emit: func(b *Builder) {
				b.Label("header")
				b.Bnez(1, "exit")
				b.Bnez(2, "header")
				b.Jmp("header")
				b.Label("exit")
				b.Halt()
			},
			want: []int{3, 0, 0, -1},
		},
		{
			// Nested divergence: an outer if/else whose then-arm contains an
			// inner if/else. Inner branch re-converges at the inner join,
			// outer branch at the outer join, and the joins are distinct.
			//
			//	B0:  beqz r1, outer_else
			//	B1:  beqz r2, inner_else   (inner branch)
			//	B2:  addi ...; jmp inner_join
			//	B3 inner_else: addi ...
			//	B4 inner_join: jmp outer_join
			//	B5 outer_else: addi ...
			//	B6 outer_join: halt
			name: "nested divergence",
			emit: func(b *Builder) {
				b.Beqz(1, "outer_else")
				b.Beqz(2, "inner_else")
				b.Addi(4, 0, 1)
				b.Jmp("inner_join")
				b.Label("inner_else")
				b.Addi(4, 0, 2)
				b.Label("inner_join")
				b.Jmp("outer_join")
				b.Label("outer_else")
				b.Addi(4, 0, 3)
				b.Label("outer_join")
				b.Halt()
			},
			want: []int{6, 4, 4, 4, 6, 6, -1},
		},
		{
			// A branch whose arms never re-join: each arm halts, so the
			// only common post-dominator is the virtual exit.
			//
			//	B0:  bnez r1, dead_end
			//	B1:  addi ...; halt
			//	B2 dead_end: halt
			name: "ipdom is exit",
			emit: func(b *Builder) {
				b.Bnez(1, "dead_end")
				b.Addi(4, 0, 1)
				b.Halt()
				b.Label("dead_end")
				b.Halt()
			},
			want: []int{-1, -1, -1},
		},
		{
			// Self-loop: a single block branching to itself until the
			// predicate clears, then falling through to halt.
			//
			//	B0:  addi r4, r4, -1; bnez r4, B0
			//	B1:  halt
			name: "self-loop",
			emit: func(b *Builder) {
				b.Label("top")
				b.Addi(4, 4, -1)
				b.Bnez(4, "top")
				b.Halt()
			},
			want: []int{1, -1},
		},
		{
			// Loop with two exits (break in the body): the header's exit
			// test and a body-level early exit both land on the same block.
			// The latch's ipdom is the header it jumps straight back to.
			//
			//	B0 header:  beqz r1, out
			//	B1 body:    bnez r2, out    (break)
			//	B2 latch:   jmp header
			//	B3 out:     halt
			name: "loop with break",
			emit: func(b *Builder) {
				b.Label("header")
				b.Beqz(1, "out")
				b.Bnez(2, "out")
				b.Jmp("header")
				b.Label("out")
				b.Halt()
			},
			want: []int{3, 3, 0, -1},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, bitset, chk := buildIPdomCase(t, tc.name, tc.emit)
			if len(p.Blocks) != len(tc.want) {
				t.Fatalf("got %d blocks, test expects %d — CFG shape drifted", len(p.Blocks), len(tc.want))
			}
			for blk, want := range tc.want {
				if bitset[blk] != want {
					t.Errorf("facts: block %d ipdom = %d, want %d", blk, bitset[blk], want)
				}
				if chk[blk] != want {
					t.Errorf("CHK oracle: block %d ipdom = %d, want %d", blk, chk[blk], want)
				}
			}
			if err := checkDominanceFacts(p.Blocks, p.cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestIPdomAlgorithmsAgreeOnLatchlessLoop pins the case where a block is
// unreachable *backwards* from the exit (an infinite loop): both
// algorithms must report no post-dominator rather than disagreeing.
func TestIPdomAlgorithmsAgreeOnLatchlessLoop(t *testing.T) {
	b := NewBuilder("infinite")
	b.Label("spin")
	b.Addi(4, 4, 1)
	b.Jmp("spin")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("infinite loops are legal programs: %v", err)
	}
	bitset, chk := p.cfg.ipdom, chkIPdom(p.Blocks)
	for blk := range p.Blocks {
		if bitset[blk] != chk[blk] {
			t.Errorf("block %d: bitset ipdom %d != CHK ipdom %d", blk, bitset[blk], chk[blk])
		}
	}
	if err := checkDominanceFacts(p.Blocks, p.cfg); err != nil {
		t.Error(err)
	}
}
