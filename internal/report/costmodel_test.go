package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wpu"
)

// TestCostModelExhibit pins the exhibit text byte-for-byte (the static
// side is pure analysis and the measured side is the deterministic
// simulator, so the table is reproducible) and checks the row grid:
// every (benchmark, scheme) point present, every measured cycle count
// inside the static bounds, and the measured-rank column forming a
// permutation of 1..13 per benchmark.
func TestCostModelExhibit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession()
	var buf bytes.Buffer
	rows, err := s.CostModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if want := len(BenchNames()) * len(wpu.AllSchemes); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	measRanks := map[string]map[int]bool{}
	for _, r := range rows {
		if !r.InBounds {
			t.Errorf("%s/%s: measured %d outside static bound [%d,%d]",
				r.Bench, r.Scheme, r.Cycles, r.TickLo, r.TickHi)
		}
		if measRanks[r.Bench] == nil {
			measRanks[r.Bench] = map[int]bool{}
		}
		if r.MeasRank < 1 || r.MeasRank > len(wpu.AllSchemes) || measRanks[r.Bench][r.MeasRank] {
			t.Errorf("%s/%s: bad or duplicate measured rank %d", r.Bench, r.Scheme, r.MeasRank)
		}
		measRanks[r.Bench][r.MeasRank] = true
	}

	path := filepath.Join("testdata", "costmodel_exhibit.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if buf.String() != string(want) {
		t.Errorf("exhibit drifted from %s (run with -update to regenerate)\ngot:\n%s", path, buf.String())
	}
}

func TestCostModelCSV(t *testing.T) {
	dir := t.TempDir()
	rows := []CostModelRow{
		{Bench: "Filter", Scheme: wpu.SchemeConv, Cycles: 100,
			TickLo: 10, TickHi: 1000, InBounds: true, MeasRank: 1},
	}
	if err := CostModelCSV(dir, rows); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, filepath.Join(dir, "costmodel.csv"))
	if len(got) != 2 {
		t.Fatalf("%d CSV lines, want 2", len(got))
	}
	if got[1][0] != "Filter" || got[1][1] != "Conv" || got[1][2] != "100" ||
		got[1][3] != "10" || got[1][4] != "1000" || got[1][5] != "1" || got[1][6] != "1" {
		t.Fatalf("row %q", got[1])
	}
}
