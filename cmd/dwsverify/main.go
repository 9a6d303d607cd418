// dwsverify runs the static program verifier (internal/program/verify.go)
// over every kernel of the benchmark suite and prints the findings. It is
// the CI gate for program well-formedness: the build fails if any kernel
// has a finding, warnings included.
//
// Usage:
//
//	dwsverify                 # verify all eight benchmarks
//	dwsverify -bench Merge    # one benchmark
//	dwsverify -scale 4        # verify at a scaled input size
//	dwsverify -disasm         # also print each kernel's disassembly
//	dwsverify -divergence     # also print each kernel's divergence report
//	dwsverify -memaccess      # also print each kernel's memory-access report
//	dwsverify -costmodel      # also print each kernel's cost-model report
//
// Exit status 1 when any kernel fails to build or has verifier findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	var (
		benchName = flag.String("bench", "all", "benchmark: FFT, Filter, HotSpot, LU, Merge, Short, KMeans, SVM, or 'all'")
		scale     = flag.Int("scale", 1, "input-size multiplier (power of two; see workloads.AllWithScale)")
		showDis   = flag.Bool("disasm", false, "print each kernel's disassembly with block and branch metadata")
		showDiv   = flag.Bool("divergence", false, "print each kernel's divergence-analysis report (branch and access classes)")
		showMem   = flag.Bool("memaccess", false, "print each kernel's memory-access report (access classes, transaction and bank-conflict bounds)")
		showCost  = flag.Bool("costmodel", false, "print each kernel's static cost model (trip counts, block execution and cycle bounds)")
	)
	flag.Parse()

	if err := workloads.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "dwsverify: %v\n", err)
		os.Exit(1)
	}
	specs := workloads.AllWithScale(*scale)
	if *benchName != "all" {
		spec, err := workloads.ByNameScaled(*benchName, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dwsverify: %v\n", err)
			os.Exit(1)
		}
		specs = []workloads.Spec{spec}
	}

	bad := 0
	kernels := 0
	for _, spec := range specs {
		progs, err := buildPrograms(spec)
		if err != nil {
			fmt.Printf("%-8s BUILD FAILED\n%v\n", spec.Name, err)
			bad++
			continue
		}
		names := make([]string, 0, len(progs))
		for name := range progs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p := progs[name]
			kernels++
			findings := p.Verify()
			if len(findings) == 0 {
				fmt.Printf("%-8s %-16s ok  (%d insts, %d blocks, %d branches%s)\n",
					spec.Name, name, len(p.Code), len(p.Blocks), p.NumBranches(), regionSummary(p))
			} else {
				bad++
				fmt.Printf("%-8s %-16s %d finding(s):\n%s",
					spec.Name, name, len(findings), program.FormatFindings(findings))
			}
			if *showDis {
				fmt.Print(p.Disassemble())
			}
			if *showDiv {
				fmt.Print(p.DivergenceReport())
			}
			if *showMem {
				fmt.Print(p.MemAccessReport())
			}
			if *showCost {
				fmt.Print(p.CostModelReport())
			}
		}
	}
	if bad > 0 {
		fmt.Printf("dwsverify: FAIL (%d kernel(s)/benchmark(s) with findings)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("dwsverify: ok (%d kernels verified clean)\n", kernels)
}

// buildPrograms instantiates the benchmark on a scratch machine and collects
// its distinct kernels. Kernels are built with MustVerify, so a regression
// surfaces as a panic; convert it to an error so every benchmark reports.
func buildPrograms(spec workloads.Spec) (progs map[string]*program.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	inst, err := spec.Build(sys)
	if err != nil {
		return nil, err
	}
	progs = make(map[string]*program.Program)
	for _, st := range inst.Steps() {
		progs[st.Prog.Name] = st.Prog
	}
	return progs, nil
}

func regionSummary(p *program.Program) string {
	regions := p.Regions()
	if len(regions) == 0 {
		return ""
	}
	return fmt.Sprintf(", %d regions", len(regions))
}
