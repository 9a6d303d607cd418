package workloads

// Trace-backed soundness checks for the static cost model: replay the
// whole benchmark suite under every named scheme and confront the
// measured TickCycles and per-bucket stall cycles of every kernel launch
// with the static bounds. A measured value outside its interval is a
// cost-model soundness bug and fails the test. The consistency tests pin
// the cross-package constants the model mirrors (scheme names and flags,
// bucket labels, icache line packing), since internal/program cannot
// import internal/wpu.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/wpu"
)

func TestCostSchemesMatchWPU(t *testing.T) {
	if len(program.CostSchemes) != len(wpu.AllSchemes) {
		t.Fatalf("program.CostSchemes has %d entries, wpu.AllSchemes %d",
			len(program.CostSchemes), len(wpu.AllSchemes))
	}
	for i, tr := range program.CostSchemes {
		s := wpu.AllSchemes[i]
		if tr.Name != string(s) {
			t.Errorf("CostSchemes[%d] = %q, want %q", i, tr.Name, s)
			continue
		}
		c := s.Apply(wpu.Config{Warps: 4, Width: 16})
		if tr.SubdivBranch != c.SubdivideOnBranch {
			t.Errorf("%s: SubdivBranch=%v, wpu SubdivideOnBranch=%v", s, tr.SubdivBranch, c.SubdivideOnBranch)
		}
		if tr.MemSplit != (c.MemScheme != wpu.MemNone) {
			t.Errorf("%s: MemSplit=%v, wpu MemScheme=%v", s, tr.MemSplit, c.MemScheme)
		}
		if tr.Slip != (c.Slip != wpu.SlipOff) {
			t.Errorf("%s: Slip=%v, wpu Slip=%v", s, tr.Slip, c.Slip)
		}
	}
}

func TestCostBucketLabelsMatchWPU(t *testing.T) {
	if program.CostBucketLabels != wpu.CycleBucketLabels {
		t.Errorf("program.CostBucketLabels = %v\nwpu.CycleBucketLabels = %v",
			program.CostBucketLabels, wpu.CycleBucketLabels)
	}
	if program.CostInstPerLine != wpu.ICacheInstPerLine {
		t.Errorf("program.CostInstPerLine = %d, wpu.ICacheInstPerLine = %d",
			program.CostInstPerLine, wpu.ICacheInstPerLine)
	}
}

// costModelKey memoizes CostModelFor per (kernel, thread-count): LU alone
// launches 142 steps and the model only depends on the program and the
// launch geometry.
type costModelKey struct {
	prog    *program.Program
	threads int
}

// runSuiteForCost replays every benchmark under one scheme, asserting per
// launch that the measured cycle totals satisfy the static bounds.
func runSuiteForCost(t *testing.T, si int, models map[costModelKey]*program.CostModel) {
	t.Helper()
	scheme := wpu.AllSchemes[si]
	traits := program.CostSchemes[si]
	for _, spec := range All() {
		cfg := sim.DefaultConfig()
		cfg.WPU = scheme.Apply(cfg.WPU)
		sys, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := spec.Build(sys)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for i, st := range inst.Steps() {
			key := costModelKey{st.Prog, len(st.Threads)}
			m := models[key]
			if m == nil {
				m = st.Prog.CostModelFor(sim.CostParamsFor(cfg, len(st.Threads)))
				models[key] = m
			}
			before := sys.TotalStats()
			if _, err := sys.RunKernel(st.Prog, st.Threads); err != nil {
				t.Fatalf("%s step %d: %v", spec.Name, i, err)
			}
			after := sys.TotalStats()

			ticks := after.TickCycles - before.TickCycles
			if !m.Ticks.Contains(int64(ticks)) {
				t.Errorf("%s/%s step %d (%s, %d threads): measured TickCycles %d outside static bound %s",
					scheme, spec.Name, i, st.Prog.Name, len(st.Threads), ticks, m.Ticks)
			}
			bb, ba := before.CycleBuckets(), after.CycleBuckets()
			bounds := m.BucketBoundsFor(traits)
			for b := range bounds {
				d := ba[b] - bb[b]
				if !bounds[b].Contains(int64(d)) {
					t.Errorf("%s/%s step %d (%s, %d threads): bucket %s measured %d outside static bound %s",
						scheme, spec.Name, i, st.Prog.Name, len(st.Threads), wpu.CycleBucketLabels[b], d, bounds[b])
				}
			}
		}
		if err := inst.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCostModelConcordance checks every kernel launch of every benchmark
// under all 13 schemes against the static cycle and bucket bounds.
func TestCostModelConcordance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	models := make(map[costModelKey]*program.CostModel)
	for si := range wpu.AllSchemes {
		runSuiteForCost(t, si, models)
	}
}

// TestCostModelReportGolden pins the Build-time cost-model report of every
// suite kernel. Regenerate with -update (or make update-goldens).
func TestCostModelReportGolden(t *testing.T) {
	progs := make(map[string]*program.Program)
	for _, spec := range All() {
		sys, err := sim.New(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inst, err := spec.Build(sys)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, st := range inst.Steps() {
			progs[st.Prog.Name] = st.Prog
		}
	}
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteString(progs[name].CostModelReport())
		sb.WriteString("\n")
	}
	got := sb.String()
	path := filepath.Join("testdata", "costmodel_report.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("cost-model report drifted from %s (run with -update to regenerate)\ngot:\n%s", path, got)
	}
}

// BenchmarkCostModel times the full static analysis on the suite's
// largest kernel (guarded by the dwsbench regression gate).
func BenchmarkCostModel(b *testing.B) {
	p := kmeansAssignKernel(kmeansP, kmeansK, kmeansD, 256)
	cp := sim.CostParamsFor(sim.DefaultConfig(), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := p.CostModelFor(cp); m == nil {
			b.Fatal("nil cost model")
		}
	}
}
