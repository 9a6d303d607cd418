package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

// TestCatalogueMatchesBenchmarkJSON keeps the metric tables in main.go
// and the workload set in step with BENCHMARK.json at the repository
// root, which names the workloads and metrics for whoever runs the
// benchmark.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names, runs []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloadRuns {
		runs = append(runs, w)
	}
	sort.Strings(names)
	sort.Strings(runs)
	if len(names) != len(runs) {
		t.Fatalf("workloads: BENCHMARK.json %v, benchmark %v", names, runs)
	}
	for i := range names {
		if names[i] != runs[i] {
			t.Fatalf("workloads: BENCHMARK.json %v, benchmark %v", names, runs)
		}
	}
}

func shortRun(t *testing.T, workload string, trace bool) (summary, string) {
	t.Helper()
	var out bytes.Buffer
	s, err := run(params{workload: workload, seed: 7, seconds: 1, trace: trace, short: true,
		workDir: t.TempDir(), out: &out})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return s, out.String()
}

// checkSummary asserts a clean run that printed exactly the given metrics
// with their units.
func checkSummary(t *testing.T, s summary, defs []metricDef) {
	t.Helper()
	if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
		t.Errorf("correct %v, failed %d of %d attempted; want a clean run", s.Correct, s.Failed, s.Attempted)
	}
	if len(s.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(s.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := s.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v, want a finite value in %s", d.name, m, d.unit)
		}
	}
}

// cpuShareTolerance is how far, in percent, the profile may miss the
// process's CPU time. Each profiled thread's last sampling period goes
// unsampled, a few percent of a one-second run.
const cpuShareTolerance = 10

var digestRE = regexp.MustCompile(`digest ([0-9a-f]{16})`)

// TestShortRuns runs every workload at reduced size, untraced and
// traced: every metric is printed with its unit, nothing fails, the
// end-to-end metrics are positive, batch result digests repeat across
// passes and runs, and the CPU shares of a traced run account for the process's CPU
// time.
func TestShortRuns(t *testing.T) {
	for _, w := range []string{"suite", "assoc", "serve"} {
		t.Run(w, func(t *testing.T) {
			s, out := shortRun(t, w, false)
			checkSummary(t, s, endToEnd)
			for _, d := range endToEnd {
				if s.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, s.Metrics[d.name].Value)
				}
			}
			if w != "serve" {
				_, again := shortRun(t, w, false)
				ds := digestRE.FindAllStringSubmatch(out+again, -1)
				if len(ds) < 2 {
					t.Fatalf("found %d digests in the output", len(ds))
				}
				for _, d := range ds {
					if d[1] != ds[0][1] {
						t.Fatalf("digests differ: %s vs %s", d[1], ds[0][1])
					}
				}
			}

			ts, tout := shortRun(t, w, true)
			checkSummary(t, ts, perLayer)
			// The shares are of the process's CPU time as getrusage counts
			// it, so samples the profile lost or never took leave the sum
			// short of 100.
			shares := map[string]float64{}
			for name, m := range ts.Metrics {
				shares[name] = m.Value
			}
			if sum := profiled(shares); math.Abs(sum-100) > cpuShareTolerance {
				t.Errorf("cpu.* shares sum to %.2f %% of process CPU time, want 100 ± %v", sum, cpuShareTolerance)
			}
			if w != "serve" {
				ds := digestRE.FindAllStringSubmatch(tout, -1)
				for _, d := range ds {
					if d[1] != ds[0][1] {
						t.Errorf("layered pass digest %s differs from the Session pass %s", d[1], ds[0][1])
					}
				}
			}
		})
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/mem.(*store).lookup", "repro/internal/mem.(*L1).Access"}, "mem"},
		{[]string{"runtime.memmove", "repro/internal/wpu.(*WPU).Tick"}, "wpu"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/program.Build"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/serve.writeJSON"}, "net"},
		{[]string{"crypto/sha256.block", "repro/internal/serve.ResultKey"}, "serve"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
