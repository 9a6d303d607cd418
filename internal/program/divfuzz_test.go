package program

import (
	"testing"

	"repro/internal/isa"
)

// divFuzzOps is the opcode menu for the divergence-analysis fuzzer: ALU and
// forward control flow only. Memory ops are excluded (LD is always
// divergent, trivially sound) and targets are forced forward so programs
// are loop-free — a concrete interpreter can then enumerate every (tid,
// block) state exactly once. Loop widening is covered by the table-driven
// tests instead.
var divFuzzOps = []isa.Op{
	isa.NOP, isa.MOV, isa.MOVI, isa.ADD, isa.SUB, isa.MUL, isa.DIV,
	isa.AND, isa.XOR, isa.SHL, isa.SLT, isa.SEQ, isa.MIN,
	isa.ADDI, isa.MULI, isa.SHLI, isa.ANDI, isa.SLTI,
	isa.ITOF, isa.FTOI, isa.BEQZ, isa.BNEZ, isa.JMP,
}

// buildDivFuzzProgram decodes 3-byte instruction encodings (op, b1, b2)
// into a loop-free program with a trailing HALT, and builds it. Branch and
// jump targets are decoded strictly forward: pc+1 + b1 mod (insts-pc).
// Returns nil when Build rejects the program (fine — the contract under
// test is the analysis, not the builder).
func buildDivFuzzProgram(data []byte) *Program {
	const maxInsts = 48
	n := len(data) / 3
	if n > maxInsts {
		n = maxInsts
	}
	if n == 0 {
		return nil
	}
	b := NewBuilder("divfuzz")
	for i := 0; i < n; i++ {
		b0, b1, b2 := data[i*3], data[i*3+1], data[i*3+2]
		op := divFuzzOps[int(b0)%len(divFuzzOps)]
		in := isa.Inst{
			Op:   op,
			Dst:  isa.Reg(b1 % isa.NumRegs),
			SrcA: isa.Reg(b2 % isa.NumRegs),
			SrcB: isa.Reg((b1 >> 3) % isa.NumRegs),
		}
		switch op {
		case isa.BEQZ, isa.BNEZ, isa.JMP:
			in.Target = i + 1 + int(b1)%(n-i) // forward only: (pc, n]
		case isa.MOVI, isa.ADDI, isa.MULI, isa.SHLI, isa.ANDI, isa.SLTI:
			in.Imm = int64(int8(b2))
		}
		b.Emit(in)
	}
	b.Emit(isa.Inst{Op: isa.HALT})
	p, err := b.Build()
	if err != nil {
		return nil
	}
	return p
}

// FuzzDivergence cross-checks the static divergence analysis against
// concrete multi-tid interpretation: for every (block, register) the
// interpreter reaches, an exact claim must predict the value from tid
// alone, a stride claim must leave value − s·tid equal across tids (mod
// 2^64, exactly as the machine wraps), and in particular anything the
// analysis calls uniform must be equal across all reaching tids.
func FuzzDivergence(f *testing.F) {
	// Seeds: a diamond with a per-arm constant, straight-line affine
	// arithmetic into a branch, garbage.
	f.Add([]byte{21, 1, 1, 2, 4, 7, 3, 37, 1})
	f.Add([]byte{14, 4, 1, 13, 5, 4, 20, 0, 5})
	f.Add([]byte{255, 255, 255, 7, 3, 9, 100, 50, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := buildDivFuzzProgram(data)
		if p == nil {
			return
		}
		div := p.analyzeDivergence()
		const T = 6
		blockOf := p.cfg.blockOf
		reached := make([][T]bool, len(p.Blocks))
		vals := make([][T][isa.NumRegs]int64, len(p.Blocks))
		for tid := 0; tid < T; tid++ {
			var rf isa.RegFile
			rf.Set(1, int64(tid))         // global tid
			rf.Set(2, T)                  // uniform thread count
			rf.Set(3, int64((tid*7+3)%5)) // divergent ABI register
			pc := 0
			for steps := 0; steps <= len(p.Code); steps++ {
				blk := blockOf[pc]
				if p.Blocks[blk].Start == pc && !reached[blk][tid] {
					reached[blk][tid] = true
					for r := 0; r < isa.NumRegs; r++ {
						vals[blk][tid][r] = rf.Get(isa.Reg(r))
					}
				}
				in := p.Code[pc]
				if in.Op == isa.HALT {
					break
				}
				switch {
				case in.Op.IsBranch():
					if isa.BranchTaken(in, &rf) {
						pc = in.Target
					} else {
						pc++
					}
				case in.Op == isa.JMP:
					pc = in.Target
				default:
					isa.ExecALU(in, &rf)
					pc++
				}
			}
		}

		for blk := range p.Blocks {
			var tids []int
			for tid := 0; tid < T; tid++ {
				if reached[blk][tid] {
					tids = append(tids, tid)
				}
			}
			if len(tids) == 0 || !div.seen[blk] {
				continue
			}
			for r := 0; r < isa.NumRegs; r++ {
				claim := div.in[blk][r]
				switch claim.kind {
				case vExact:
					if claim.region >= 0 {
						t.Fatalf("block %d r%d: region-relative claim in a region-free program", blk, r)
					}
					for _, tid := range tids {
						want := claim.c0 + claim.ct*int64(tid)
						if got := vals[blk][tid][r]; got != want {
							t.Fatalf("block %d r%d tid %d: exact claim %d+%d*tid but concrete value %d\n%s",
								blk, r, tid, claim.c0, claim.ct, got, p.Disassemble())
						}
					}
				case vStride:
					base := uint64(vals[blk][tids[0]][r]) - uint64(claim.s)*uint64(tids[0])
					for _, tid := range tids[1:] {
						if got := uint64(vals[blk][tid][r]) - uint64(claim.s)*uint64(tid); got != base {
							t.Fatalf("block %d r%d tid %d: stride-%d claim broken (base %d vs %d)\n%s",
								blk, r, tid, claim.s, base, got, p.Disassemble())
						}
					}
				}
			}
		}
	})
}
