package mem

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
)

// HierarchyConfig assembles the full memory system of Table 3: per-WPU
// private L1 D-caches, a crossbar, the shared inclusive L2, the memory bus,
// and DRAM.
type HierarchyConfig struct {
	L1 L1Config
	L2 L2Config
	// XbarLat/XbarOcc model the L1↔L2 crossbar (300 MHz, 57 GB/s in the
	// paper: ≈2 cycles of occupancy per 128 B line at 1 GHz).
	XbarLat engine.Cycle
	XbarOcc engine.Cycle
	// MemBusOcc models the 16 GB/s memory bus (≈8 cycles per line).
	MemBusOcc engine.Cycle
	DRAMLat   engine.Cycle
	// Trace is the per-System observability sink handed to every cache;
	// nil (the default) disables event emission entirely.
	Trace *obs.Trace
}

// Hierarchy is the assembled memory system shared by all WPUs.
type Hierarchy struct {
	Mem  *Memory
	L1s  []*L1
	L2   *L2
	Xbar *Channel
	Bus  *Channel
	DRAM *DRAM
}

// Validate reports a cache whose geometry cannot be built exactly — a way
// count that does not divide the line count, a line size that is not a
// power of two, or a cache smaller than one line — naming the cache.
func (cfg HierarchyConfig) Validate() error {
	if _, _, err := geometry(cfg.L1.SizeBytes, cfg.L1.Ways, cfg.L1.LineSize); err != nil {
		return fmt.Errorf("L1 D-cache: %v", err)
	}
	if _, _, err := geometry(cfg.L2.SizeBytes, cfg.L2.Ways, cfg.L2.LineSize); err != nil {
		return fmt.Errorf("L2 cache: %v", err)
	}
	return nil
}

// NewHierarchy builds the memory system with numL1 private caches attached.
func NewHierarchy(q *engine.Queue, numL1 int, cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		Mem:  NewMemory(),
		Xbar: NewChannel(q, cfg.XbarLat, cfg.XbarOcc),
		Bus:  NewChannel(q, 0, cfg.MemBusOcc),
	}
	h.DRAM = NewDRAM(q, h.Bus, cfg.DRAMLat)
	h.L2 = NewL2(q, cfg.L2, h.DRAM, cfg.Trace)
	for i := 0; i < numL1; i++ {
		h.L1s = append(h.L1s, NewL1(i, q, cfg.L1, h.Xbar, h.L2, cfg.Trace))
	}
	return h
}

// CheckCoherence validates the global MESI invariants; tests and the
// simulator's debug mode call it. It returns a description of the first
// violation found, or "".
//
// Invariants checked (over installed lines, i.e. ignoring in-flight fills):
//   - single writer: at most one L1 holds a line Modified/Exclusive, and
//     then no other L1 holds it at all;
//   - directory precision: an L1 holding a line S appears in the sharer
//     set, and an L1 holding M/E is the registered owner;
//   - inclusion: every line in an L1 is present in the L2;
//   - no stale data: dirty L1 data only exists under Modified — a dirty
//     line in any other state would be dropped without writeback on
//     invalidation or silently diverge from the L2 copy.
func (h *Hierarchy) CheckCoherence() string {
	type holder struct {
		id    int
		state Coherence
	}
	type lineHolders struct {
		lineAddr uint64
		hs       []holder
	}
	// lines is iterated in insertion order (L1 id, then frame order within
	// each L1) so the first violation reported is deterministic; the map is
	// a lookup index only and is never ranged over.
	var lines []lineHolders
	index := make(map[uint64]int)
	for _, c := range h.L1s {
		id := c.ID
		var bad string
		c.store.forEachValid(func(w *way) {
			if w.dirty && w.state != Modified && bad == "" {
				bad = sprintf("stale data: L1 %d holds dirty line %#x in state %v", id, w.lineAddr, w.state)
			}
			li, ok := index[w.lineAddr]
			if !ok {
				li = len(lines)
				index[w.lineAddr] = li
				lines = append(lines, lineHolders{lineAddr: w.lineAddr})
			}
			lines[li].hs = append(lines[li].hs, holder{id, w.state})
		})
		if bad != "" {
			return bad
		}
	}
	for _, lh := range lines {
		lineAddr, hs := lh.lineAddr, lh.hs
		l2w := h.L2.st.lookup(lineAddr)
		if l2w == nil {
			return sprintf("inclusion violated: line %#x in L1 but not L2", lineAddr)
		}
		exclusive := -1
		for _, x := range hs {
			if x.state == Modified || x.state == Exclusive {
				exclusive = x.id
			}
		}
		if exclusive >= 0 {
			if len(hs) > 1 {
				return sprintf("single-writer violated: line %#x held by %d L1s with an M/E copy", lineAddr, len(hs))
			}
			if int(l2w.owner) != exclusive {
				return sprintf("directory owner for %#x is %d, want %d", lineAddr, l2w.owner, exclusive)
			}
			continue
		}
		for _, x := range hs {
			if l2w.sharers&(1<<uint(x.id)) == 0 {
				return sprintf("directory sharers for %#x miss L1 %d", lineAddr, x.id)
			}
		}
	}
	return ""
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
