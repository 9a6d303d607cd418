package mem

import (
	"sync"
	"testing"
)

// scanLookup is the reference lookup: a linear scan of every frame's dense
// tag, the way a store without the tag index finds a line.
func scanLookup(s *store, lineAddr uint64) *way {
	for i, tag := range s.tags {
		if tag == lineAddr {
			return &s.frames[i]
		}
	}
	return nil
}

// checkStore asserts that the index and the tags agree: every valid frame
// is found by lookup, invalid frames hold the sentinel, and the tag index
// (when present) holds exactly one entry per valid frame and nothing else.
func checkStore(t *testing.T, s *store) {
	t.Helper()
	valid := 0
	for i := range s.frames {
		w := &s.frames[i]
		if !w.valid {
			if s.tags[i] != invalidLine || w.lineAddr != invalidLine {
				t.Fatalf("invalid frame %d holds tag %#x / lineAddr %#x", i, s.tags[i], w.lineAddr)
			}
			continue
		}
		valid++
		if s.tags[i] != w.lineAddr {
			t.Fatalf("frame %d: tag %#x, lineAddr %#x", i, s.tags[i], w.lineAddr)
		}
		if got := s.lookup(w.lineAddr); got != w {
			t.Fatalf("lookup(%#x) = %v, want frame %d", w.lineAddr, got, i)
		}
	}
	if s.index == nil {
		return
	}
	seen := make([]bool, len(s.frames))
	entries := 0
	for slot, f := range s.index {
		if f == 0 {
			continue
		}
		entries++
		if !s.frames[f-1].valid {
			t.Fatalf("index slot %d points at invalid frame %d", slot, f-1)
		}
		if seen[f-1] {
			t.Fatalf("frame %d indexed twice", f-1)
		}
		seen[f-1] = true
	}
	if entries != valid {
		t.Fatalf("index holds %d entries for %d valid frames", entries, valid)
	}
}

// indexGeometry is one store shape the fuzzer drives, with the line
// addresses its operations draw from.
type indexGeometry struct {
	name       string
	size, ways int
	// lines maps an operand to a line address; nil draws from a span of
	// twice the frame count, so about half the lines fit.
	lines []uint64
}

// collidingLines returns line addresses of a 2,048-way store whose home
// slots in the tag index are its last four or first two slots. Installed
// together they form one probe chain that wraps from the end of the table
// to its start, so invalidating inside it exercises the backward shift
// across the wrap.
var collidingLines = sync.OnceValue(func() []uint64 {
	s := newStore(256<<10, 0, 128)
	n := uint64(len(s.index))
	var tail, head []uint64
	for line := uint64(0); len(tail) < 64 || len(head) < 32; line++ {
		addr := line << s.lineShift
		switch h := s.slot(addr); {
		case h >= n-4 && len(tail) < 64:
			tail = append(tail, addr)
		case h < 2 && len(head) < 32:
			head = append(head, addr)
		}
	}
	return append(tail, head...)
})

// FuzzStoreIndex decodes a byte stream into store operations — lookup,
// victim+install, touch, invalidate, and a burst of installs that fills
// the store — and runs it on stores at and above the index threshold. After
// every operation, lookup of the operand must match a linear scan of the
// tags, and checkStore must hold. The checked-in corpus
// (testdata/fuzz/FuzzStoreIndex) covers fills past capacity, evictions
// and invalidations on each geometry, and the colliding, wrapping chain.
func FuzzStoreIndex(f *testing.F) {
	geoms := []indexGeometry{
		{name: "32way", size: 32 << 10, ways: indexWays},
		{name: "64way", size: 32 << 10, ways: 64},
		{name: "256way", size: 32 << 10},
		{name: "2048way", size: 256 << 10},
		{name: "2048way-colliding", size: 256 << 10, lines: collidingLines()},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range geoms {
			s := newStore(g.size, g.ways, 128)
			if (s.index != nil) != (s.ways > indexWays) {
				t.Fatalf("%s: index present = %v at %d ways", g.name, s.index != nil, s.ways)
			}
			line := func(a uint64) uint64 {
				if g.lines != nil {
					return g.lines[a%uint64(len(g.lines))]
				}
				return (a % uint64(2*len(s.frames))) << s.lineShift
			}
			fill := func(addr uint64) {
				w := s.lookup(addr)
				if w == nil {
					w = s.victim(addr)
					if w.valid {
						s.invalidate(w) // the caches' evict
					}
					s.install(w, addr)
				}
				s.touch(w)
			}
			for ops := data; len(ops) >= 3; ops = ops[3:] {
				op, a := ops[0], uint64(ops[1])|uint64(ops[2])<<8
				addr := line(a)
				switch op % 5 {
				case 0: // lookup only
				case 1:
					fill(addr)
				case 2:
					if w := s.lookup(addr); w != nil {
						s.touch(w)
					}
				case 3:
					if w := s.lookup(addr); w != nil {
						s.invalidate(w)
					}
				case 4:
					// Install a quarter of the frames' worth of consecutive
					// lines: a few bursts fill the store and start evicting.
					for i := 0; i <= len(s.frames)/4; i++ {
						fill(line(a + uint64(i)))
					}
				}
				if got, want := s.lookup(addr), scanLookup(s, addr); got != want {
					t.Fatalf("%s: op %d: lookup(%#x) = %p, linear scan %p", g.name, op%5, addr, got, want)
				}
				checkStore(t, s)
			}
		}
	})
}

// BenchmarkStoreLookup times one tag lookup at Table 3's 8-way L1 and
// Figure 18's fully-associative 32 KB (256-way) and 256 KB (2,048-way)
// L1s. Every frame holds a line, and a fixed odd stride walks twice as
// many lines as there are frames, so the stream alternates hits and
// misses — a miss is what paid for a scan of every way before the tag
// index. cmd/dwsbench gates 2048way against 8way, so a wide store that
// falls back to scanning (about 100× slower) trips the gate.
func BenchmarkStoreLookup(b *testing.B) {
	for _, g := range []indexGeometry{
		{name: "8way", size: 32 << 10, ways: 8},
		{name: "256way", size: 32 << 10},
		{name: "2048way", size: 256 << 10},
	} {
		b.Run(g.name, func(b *testing.B) {
			s := newStore(g.size, g.ways, 128)
			lines := uint64(2 * len(s.frames))
			for line := uint64(0); line < lines/2; line++ {
				addr := line << s.lineShift
				s.install(s.victim(addr), addr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var hits int64
			for i := 0; i < b.N; i++ {
				line := (uint64(i) * 0x9E37) & (lines - 1)
				if s.lookup(line<<s.lineShift) != nil {
					hits++
				}
			}
			benchSink = hits
		})
	}
}
