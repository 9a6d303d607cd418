package mem

import "testing"

// TestCheckCoherenceDeterministicReport pins the fix for the old
// map-ranged holders scratch in CheckCoherence: with several simultaneous
// violations, the one reported must be a pure function of L1 id and frame
// order — never of Go's randomised map iteration. The lines slice is
// iterated in insertion order, so across many fresh hierarchies (each with
// its own map layout) the message must not change.
func TestCheckCoherenceDeterministicReport(t *testing.T) {
	build := func() *Hierarchy {
		_, h := newTestHier(t, 4)
		// Seed two independent inclusion violations (lines valid in an L1
		// but absent from the L2), on different L1s and different lines. A
		// map-ordered walk could report either one first.
		install := func(l1 int, addr uint64) {
			st := h.L1s[l1].store
			w := st.victim(addr)
			st.install(w, addr)
			w.state = Shared
		}
		install(2, 0x81000)
		install(1, 0x42000)
		return h
	}

	want := build().CheckCoherence()
	if want == "" {
		t.Fatal("seeded violations not detected")
	}
	for i := 0; i < 100; i++ {
		if got := build().CheckCoherence(); got != want {
			t.Fatalf("run %d: violation report changed:\n got %q\nwant %q", i, got, want)
		}
	}
}
