package report

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// Cost-model exhibit (static analysis): the sound static cycle bounds of
// program.CostModel confronted with measured runs. The table shows, per
// benchmark under the Conv baseline, measured TickCycles inside the static
// [lo, hi] claim; the CSV carries the same check for every (benchmark,
// scheme) point.

// CostModelRow is one (benchmark, scheme) point: measured cycles against
// the static claim. Static quantities are summed over the benchmark's
// kernel launches.
type CostModelRow struct {
	Bench    string
	Scheme   wpu.Scheme
	Cycles   uint64 // measured summed TickCycles
	TickLo   int64  // static lower bound
	TickHi   int64  // static upper bound (≥ program.CostInf: unbounded)
	InBounds bool
	MeasRank int // 1-based rank by measured cycles
}

// benchBounds is the static tick bound for one benchmark, summed over its
// launches.
type benchBounds struct{ lo, hi int64 }

func (b benchBounds) contains(cycles uint64) bool {
	return int64(cycles) >= b.lo && (b.hi >= program.CostInf || int64(cycles) <= b.hi)
}

// staticBenchBounds computes the static cost models of every benchmark's
// launches (no simulation) under the given machine configuration.
func staticBenchBounds(cfg sim.Config) (map[string]benchBounds, error) {
	out := make(map[string]benchBounds)
	type mkey struct {
		prog    *program.Program
		threads int
	}
	models := make(map[mkey]*program.CostModel)
	for _, spec := range workloads.All() {
		sys, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		inst, err := spec.Build(sys)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		var bb benchBounds
		for _, st := range inst.Steps() {
			k := mkey{st.Prog, len(st.Threads)}
			m := models[k]
			if m == nil {
				m = st.Prog.CostModelFor(sim.CostParamsFor(cfg, len(st.Threads)))
				models[k] = m
			}
			bb.lo += m.Ticks.Lo
			if bb.hi < program.CostInf {
				if m.Ticks.Unbounded() {
					bb.hi = program.CostInf
				} else {
					bb.hi += m.Ticks.Hi
				}
			}
		}
		out[spec.Name] = bb
	}
	return out, nil
}

// CostModel runs the suite under all 13 schemes and prints the
// bounds-vs-measured table for the Conv baseline; the returned rows (every
// scheme) feed CostModelCSV.
func (s *Session) CostModel(w io.Writer) ([]CostModelRow, error) {
	static, err := staticBenchBounds(DefaultKnobs(wpu.SchemeConv).Config())
	if err != nil {
		return nil, err
	}
	var knobs []Knobs
	for _, sc := range wpu.AllSchemes {
		knobs = append(knobs, DefaultKnobs(sc))
	}
	if err := s.Prefetch(suiteJobs(knobs...)); err != nil {
		return nil, err
	}

	fmt.Fprintln(w, "Cost model (static analysis): measured cycles vs static bounds, Conv baseline")
	t := newTable(w, "bench", "cycles", "static bound", "in")
	var rows []CostModelRow
	for _, b := range BenchNames() {
		bb := static[b]
		cycles := make(map[wpu.Scheme]uint64)
		for _, sc := range wpu.AllSchemes {
			r, err := s.Run(b, DefaultKnobs(sc))
			if err != nil {
				return nil, err
			}
			cycles[sc] = r.Stats.TickCycles
		}
		conv := cycles[wpu.SchemeConv]
		t.row(b, strconv.FormatUint(conv, 10), program.CostInterval{Lo: bb.lo, Hi: bb.hi}.String(),
			okMark(bb.contains(conv)))

		order := append([]wpu.Scheme(nil), wpu.AllSchemes...)
		sort.SliceStable(order, func(i, j int) bool { return cycles[order[i]] < cycles[order[j]] })
		for i, sc := range order {
			rows = append(rows, CostModelRow{
				Bench: b, Scheme: sc, Cycles: cycles[sc],
				TickLo: bb.lo, TickHi: bb.hi, InBounds: bb.contains(cycles[sc]),
				MeasRank: i + 1,
			})
		}
	}
	t.flush()
	return rows, nil
}

func okMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// CostModelCSV writes the full (benchmark, scheme) grid.
func CostModelCSV(dir string, rows []CostModelRow) error {
	header := []string{"bench", "scheme", "cycles", "tick_lo", "tick_hi", "in_bounds", "measured_rank"}
	var out [][]string
	for _, r := range rows {
		hi := "inf"
		if r.TickHi < program.CostInf {
			hi = strconv.FormatInt(r.TickHi, 10)
		}
		in := "0"
		if r.InBounds {
			in = "1"
		}
		out = append(out, []string{
			r.Bench, string(r.Scheme), strconv.FormatUint(r.Cycles, 10),
			strconv.FormatInt(r.TickLo, 10), hi, in, strconv.Itoa(r.MeasRank),
		})
	}
	return writeCSV(dir, "costmodel.csv", header, out)
}
