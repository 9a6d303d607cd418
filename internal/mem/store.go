package mem

import (
	"fmt"
	"math/bits"
)

// Coherence is the MESI state of a line held in an L1 cache.
type Coherence uint8

// MESI states. The L2 directory grants Exclusive on unshared reads (the E
// optimisation), Shared otherwise, and Modified for writes.
const (
	Invalid Coherence = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (c Coherence) String() string {
	switch c {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// way is one line frame. The directory fields (sharers, owner) are used
// only by the L2; an L1 uses state/dirty.
type way struct {
	lineAddr uint64
	idx      int32 // position in frames/tags, fixed at construction
	valid    bool
	state    Coherence
	dirty    bool
	sharers  uint64 // L2 directory: bitmask of L1 IDs holding the line Shared
	owner    int8   // L2 directory: L1 ID holding E/M, or -1
	lastUse  uint64
}

// store is a set-associative line array with LRU replacement. Ways == 0 at
// construction selects full associativity. The frames live in one flat
// array (set i is frames[i*ways : (i+1)*ways]): set selection is a shift
// and mask plus one bounds-checked reslice, with no per-set slice headers
// to chase — this lookup runs on every simulated cache access.
//
// A set wider than indexWays also gets a tag→frame index, so lookup costs
// O(1) instead of a scan of every way (Figure 18's fully-associative L1s
// are 256 and 2,048 ways). The frame contents a lookup can see — valid,
// lineAddr, tags and the index — change only in install and invalidate.
type store struct {
	frames []way
	// tags mirrors frames' lineAddr fields in a dense array: lookup's tag
	// probe then touches one or two cache lines per set instead of striding
	// across 48-byte frames.
	tags []uint64
	// index is the wide-set tag index: an open-addressed table of frame
	// numbers plus one (0 = empty slot) with linear probing and
	// backward-shift deletion, holding exactly the valid frames. It is nil
	// for sets of indexWays or fewer, which scan tags instead.
	index      []int32
	indexShift uint // Fibonacci hashing keeps the top 64-indexShift bits
	numSets    int
	ways       int
	lineSize   uint64
	// lineShift/setMask turn setOf's divide+modulo into shift+and.
	// numSets is lines/ways and may not be a power of two for odd way
	// counts; setMask < 0 selects the slow modulo path then.
	lineShift uint
	setMask   int64
	useClock  uint64
}

// indexWays is the widest set that lookup scans. Above it the store keeps
// the tag index. The Table 3 L1 (8-way), the L2 (16-way) and Figure 15's
// 4/8/16-way L1s stay on the dense-tag scan, which for them is as fast as
// a hash probe and needs no table; Figure 18's fully-associative L1s take
// the index.
const indexWays = 32

// geometry returns the store shape for a cache of sizeBytes with the given
// associativity (ways <= 0 or ways > lines selects full associativity), or
// an error when the shape cannot be built exactly: a line size that is not
// a power of two, a cache smaller than one line, or a way count that does
// not divide the line count (the remainder lines would silently vanish).
func geometry(sizeBytes, ways int, lineSize uint64) (numSets, setWays int, err error) {
	if lineSize == 0 || lineSize&(lineSize-1) != 0 {
		return 0, 0, fmt.Errorf("line size %d B is not a power of two", lineSize)
	}
	lines := sizeBytes / int(lineSize)
	if lines == 0 {
		return 0, 0, fmt.Errorf("%d B is smaller than one %d B line", sizeBytes, lineSize)
	}
	if ways <= 0 || ways > lines {
		ways = lines // fully associative
	}
	if lines%ways != 0 {
		return 0, 0, fmt.Errorf("%d ways do not divide its %d lines", ways, lines)
	}
	return lines / ways, ways, nil
}

func newStore(sizeBytes, ways int, lineSize uint64) *store {
	numSets, ways, err := geometry(sizeBytes, ways, lineSize)
	if err != nil {
		panic("mem: " + err.Error())
	}
	s := &store{
		frames:    make([]way, numSets*ways),
		tags:      make([]uint64, numSets*ways),
		numSets:   numSets,
		ways:      ways,
		lineSize:  lineSize,
		lineShift: uint(bits.TrailingZeros64(lineSize)),
		setMask:   -1,
	}
	if numSets&(numSets-1) == 0 {
		s.setMask = int64(numSets - 1)
	}
	if ways > indexWays {
		// At most half full, so probe chains stay short.
		slotBits := bits.Len(uint(2*len(s.frames) - 1))
		s.index = make([]int32, 1<<slotBits)
		s.indexShift = uint(64 - slotBits)
	}
	for i := range s.frames {
		s.frames[i].owner = -1
		s.frames[i].idx = int32(i)
		s.frames[i].lineAddr = invalidLine
		s.tags[i] = invalidLine
	}
	return s
}

// invalidLine is the lineAddr held by invalid frames. Real line addresses
// are line-aligned (low bits zero, lineSize ≥ 2), so all-ones can never
// match one — lookup compares addresses alone, no valid-flag load.
const invalidLine = ^uint64(0)

// invalidate releases a frame, restoring the invalid-frame address
// sentinel that keeps lookup's single-compare scan sound and dropping the
// frame from the tag index. Together with install it is the only writer of
// valid, lineAddr, tags and the index.
func (s *store) invalidate(w *way) {
	if s.index != nil && w.valid {
		s.unindex(w)
	}
	w.valid = false
	w.lineAddr = invalidLine
	s.tags[w.idx] = invalidLine
}

// install makes an invalid frame (a victim the caller has evicted) valid
// and holding lineAddr, keeping the dense tag array and the tag index in
// sync. Together with invalidate it is the only writer of valid, lineAddr,
// tags and the index; the caller owns the rest of the frame (coherence
// state, dirty bit, directory fields).
func (s *store) install(w *way, lineAddr uint64) {
	if s.index != nil {
		i := s.slot(lineAddr)
		for s.index[i] != 0 {
			i = (i + 1) & s.indexMask()
		}
		s.index[i] = w.idx + 1
	}
	w.valid = true
	w.lineAddr = lineAddr
	s.tags[w.idx] = lineAddr
}

// slot is lineAddr's home slot in the tag index: Fibonacci hashing of the
// line number, keeping the top bits.
func (s *store) slot(lineAddr uint64) uint64 {
	return ((lineAddr >> s.lineShift) * 0x9E3779B97F4A7C15) >> s.indexShift
}

func (s *store) indexMask() uint64 { return uint64(len(s.index) - 1) }

// unindex removes valid frame w from the tag index, backward-shifting the
// probe chain behind it so lookups never need tombstones.
func (s *store) unindex(w *way) {
	mask := s.indexMask()
	i := s.slot(w.lineAddr)
	for s.index[i] != w.idx+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// Pull the entry at j into the hole at i unless its home slot lies
		// strictly between the two (walking forward with wraparound): then
		// it is reachable from home without passing the hole.
		h := s.slot(s.tags[s.index[j]-1])
		if (j-h)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

// Line returns the line-aligned address containing addr.
func (s *store) Line(addr uint64) uint64 { return addr &^ (s.lineSize - 1) }

func (s *store) baseOf(lineAddr uint64) int {
	idx := int((lineAddr >> s.lineShift) & uint64(s.setMask))
	if s.setMask < 0 {
		idx = int((lineAddr >> s.lineShift) % uint64(s.numSets))
	}
	return idx * s.ways
}

func (s *store) setOf(lineAddr uint64) []way {
	base := s.baseOf(lineAddr)
	return s.frames[base : base+s.ways]
}

// lookup returns the frame holding lineAddr, or nil. Wide sets probe the
// tag index; the rest scan the set's tags. Invalid frames hold the
// invalidLine sentinel, so one compare per way suffices — against the
// dense tag array, not the frames themselves.
func (s *store) lookup(lineAddr uint64) *way {
	if s.index != nil {
		return s.lookupIndex(lineAddr)
	}
	base := s.baseOf(lineAddr)
	tags := s.tags[base : base+s.ways]
	for i := range tags {
		if tags[i] == lineAddr {
			return &s.frames[base+i]
		}
	}
	return nil
}

// lookupIndex probes the tag index, confirming each candidate frame
// against its dense tag.
func (s *store) lookupIndex(lineAddr uint64) *way {
	mask := s.indexMask()
	for i := s.slot(lineAddr); ; i = (i + 1) & mask {
		f := s.index[i]
		if f == 0 {
			return nil
		}
		if s.tags[f-1] == lineAddr {
			return &s.frames[f-1]
		}
	}
}

// touch marks a frame most-recently-used.
func (s *store) touch(w *way) {
	s.useClock++
	w.lastUse = s.useClock
}

// victim returns the frame to fill for lineAddr: an invalid frame if one
// exists, otherwise the least recently used. It scans the set at every
// width: it runs once per miss, not per access, and an LRU list would add
// work to every touch.
func (s *store) victim(lineAddr uint64) *way {
	set := s.setOf(lineAddr)
	var lru *way
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if lru == nil || set[i].lastUse < lru.lastUse {
			lru = &set[i]
		}
	}
	return lru
}

// forEachValid visits every valid frame (used for statistics and tests).
func (s *store) forEachValid(fn func(*way)) {
	for i := range s.frames {
		if s.frames[i].valid {
			fn(&s.frames[i])
		}
	}
}
