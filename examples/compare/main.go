// compare: reproduces Table 2 — side-by-side per-CUDA-function results from
// NVProf-sim, HPCToolkit-sim, and Diogenes — for every modelled application,
// showing how expected-benefit output differs from resource-consumption
// profiles "in both output order and magnitude ... as much as 99%".
//
//	go run ./examples/compare [-scale 0.25] [-app name]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"diogenes"
	"diogenes/internal/experiments"
	"diogenes/internal/report"
)

func main() {
	scale := flag.Float64("scale", 0.25, "workload scale (1.0 = full modelled size)")
	app := flag.String("app", "", "restrict to one application")
	flag.Parse()

	names := []string{}
	if *app != "" {
		names = append(names, *app)
	} else {
		for _, w := range diogenes.Workloads() {
			names = append(names, w.Name)
		}
	}

	eng := &experiments.Engine{Workers: 1}
	for i, name := range names {
		rows, err := eng.Table2For(name, *scale)
		if err != nil {
			log.Fatal(err)
		}
		if i > 0 {
			fmt.Println()
		}
		if err := report.Table2(os.Stdout, name, rows); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\nReading the table:")
	fmt.Println("  - NVProf and HPCToolkit report time *consumed* per call; for")
	fmt.Println("    synchronizing calls that silently includes wait time CUPTI never")
	fmt.Println("    itemizes (implicit and conditional synchronizations).")
	fmt.Println("  - Diogenes reports the time *recoverable* by fixing the call's")
	fmt.Println("    problematic operations — which reorders the columns entirely")
	fmt.Println("    (cumf_als: cudaDeviceSynchronize drops from #1 to ≈0).")
	fmt.Println("  - '-' means Diogenes collects no data on the call: it neither")
	fmt.Println("    synchronizes nor transfers (cudaMalloc, cudaLaunchKernel).")
	fmt.Println("  - cuIBM crashes NVProf at full scale, as in the paper.")
}
