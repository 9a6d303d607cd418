// Package workloads implements the paper's eight data-parallel benchmarks
// (Table 2) as real programs against the simulator's ISA: FFT, Filter,
// HotSpot, LU, Merge, Short, KMeans and SVM. Each is functionally verified
// against a host-side Go reference implementation after simulation.
//
// Input sizes are scaled down from the paper (which budgeted six-hour MV5
// runs) so a full experiment sweep finishes in minutes, while keeping each
// working set comfortably larger than the 32 KB L1 D-cache — the property
// that produces the paper's miss rates and memory-divergence frequencies.
// Every file documents its scaled input next to the paper's original.
package workloads

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

// Step is one kernel launch: a program plus per-thread initial registers.
type Step struct {
	Prog    *program.Program
	Threads []isa.RegFile
}

// Instance is a prepared workload bound to one system's memory.
type Instance struct {
	name   string
	steps  []Step
	verify func() error
}

// Run executes every kernel launch in order.
func (in *Instance) Run(sys *sim.System) error {
	for i, st := range in.steps {
		if _, err := sys.RunKernel(st.Prog, st.Threads); err != nil {
			return fmt.Errorf("%s step %d: %w", in.name, i, err)
		}
	}
	return nil
}

// Verify checks the computed results against the host reference.
func (in *Instance) Verify() error {
	if err := in.verify(); err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	return nil
}

// Steps exposes the launch plan (used by characterisation tooling).
func (in *Instance) Steps() []Step { return in.steps }

// Spec names a benchmark and knows how to instantiate it on a system.
type Spec struct {
	Name  string
	Desc  string
	Build func(sys *sim.System) (*Instance, error)
}

// All returns the benchmark suite in the paper's presentation order, at the
// default (fast) input scale.
func All() []Spec { return AllWithScale(1) }

// AllWithScale returns the suite with each benchmark's primary input
// dimension multiplied by scale (a power of two; FFT and Merge require it).
// Scale 1 is the documented fast default; larger scales move the working
// sets toward the paper's original inputs at proportionally longer
// simulation times (Filter and HotSpot grow their image height; LU grows
// its matrix side by √scale steps, so its O(n³) work grows ≈ scale^1.5).
func AllWithScale(scale int) []Spec {
	if scale < 1 {
		scale = 1
	}
	bld := func(fn func(sys *sim.System, scale int) (*Instance, error)) func(*sim.System) (*Instance, error) {
		return func(sys *sim.System) (*Instance, error) { return fn(sys, scale) }
	}
	return []Spec{
		{Name: "FFT", Desc: "radix-2 fast Fourier transform (Splash2), butterfly computation", Build: bld(buildFFT)},
		{Name: "Filter", Desc: "3x3 edge-detection convolution over a grayscale image", Build: bld(buildFilter)},
		{Name: "HotSpot", Desc: "iterative thermal simulation PDE solver (Rodinia)", Build: bld(buildHotSpot)},
		{Name: "LU", Desc: "dense LU decomposition (Splash2)", Build: bld(buildLU)},
		{Name: "Merge", Desc: "bottom-up parallel merge sort", Build: bld(buildMerge)},
		{Name: "Short", Desc: "winning-path search, dynamic programming over rows", Build: bld(buildShort)},
		{Name: "KMeans", Desc: "unsupervised classification, map-reduce distance aggregation (MineBench)", Build: bld(buildKMeans)},
		{Name: "SVM", Desc: "support vector machine kernel computation (MineBench)", Build: bld(buildSVM)},
	}
}

// BuildFFT and friends build each benchmark at the default scale (the
// public per-benchmark entry points).
func BuildFFT(sys *sim.System) (*Instance, error)     { return buildFFT(sys, 1) }
func BuildFilter(sys *sim.System) (*Instance, error)  { return buildFilter(sys, 1) }
func BuildHotSpot(sys *sim.System) (*Instance, error) { return buildHotSpot(sys, 1) }
func BuildLU(sys *sim.System) (*Instance, error)      { return buildLU(sys, 1) }
func BuildMerge(sys *sim.System) (*Instance, error)   { return buildMerge(sys, 1) }
func BuildShort(sys *sim.System) (*Instance, error)   { return buildShort(sys, 1) }
func BuildKMeans(sys *sim.System) (*Instance, error)  { return buildKMeans(sys, 1) }
func BuildSVM(sys *sim.System) (*Instance, error)     { return buildSVM(sys, 1) }

// ByName returns the named benchmark spec at the default scale.
func ByName(name string) (Spec, error) { return ByNameScaled(name, 1) }

// CheckScale accepts an input-size multiplier only when it is a power of
// two ≥ 1. FFT and Merge need power-of-two sizes, and LU grows its side by
// isqrt(scale), so any other value would fail verification, die at launch,
// or rerun a smaller scale's input under a different result key. Every
// front end that takes a scale applies this one rule.
func CheckScale(scale int) error {
	if scale < 1 || scale&(scale-1) != 0 {
		return fmt.Errorf("workloads: scale %d is not a power of two >= 1 (1, 2, 4, 8, ...)", scale)
	}
	return nil
}

// ByNameScaled returns the named benchmark spec at the given scale, which
// must pass CheckScale.
func ByNameScaled(name string, scale int) (Spec, error) {
	if err := CheckScale(scale); err != nil {
		return Spec{}, err
	}
	for _, s := range AllWithScale(scale) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// isqrt returns the integer square root, used by LU's side scaling.
func isqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// threadsFor picks the launch width: every hardware thread when the work is
// large (threads stride over items), or one thread per item for small work.
func threadsFor(sys *sim.System, items int) int {
	cap := sys.ThreadCapacity()
	if items < cap {
		return items
	}
	return cap
}

// launch builds the per-thread register files with the standard ABI
// (R1 = tid, R2 = nthreads) plus workload registers from setup.
func launch(p *program.Program, n int, setup func(tid int, r *isa.RegFile)) Step {
	return Step{Prog: p, Threads: sim.Threads(n, setup)}
}

func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	} else if a < -1 {
		scale = -a
	}
	return d <= 1e-6*scale
}
