// cumf_als walkthrough: reproduces the paper's §5.1 case study end to end —
// the Figure 6 sequence listing, the Figure 8 subsequence refinement, and
// the Table 1 estimated-vs-actual comparison for the ALS matrix
// factorization workload.
//
//	go run ./examples/cumfals [-scale 0.25]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"diogenes"
	"diogenes/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 0.25, "workload scale (1.0 = full modelled size)")
	flag.Parse()

	fmt.Println("Running the five FFM stages on cumf_als ...")
	rep, err := diogenes.RunWorkload("cumf_als", *scale)
	if err != nil {
		log.Fatal(err)
	}
	a := rep.Analysis

	// Figure 6: the per-iteration problem sequence.
	seqs := a.StaticSequences()
	if len(seqs) == 0 {
		log.Fatal("no problem sequences found")
	}
	top := seqs[0]
	fmt.Println("\n== Figure 6: the problem sequence ==")
	if err := diogenes.WriteSequence(os.Stdout, a, top); err != nil {
		log.Fatal(err)
	}

	// Figure 8: refine to the fixable core (entries 10..23), exactly as
	// the paper did — "the evaluation of the benefit of fixing this subset
	// of operations does not require additional data collection".
	from, to := 10, len(top.Entries)
	sub, err := a.SubsequenceBenefit(top, from, to)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Figure 8: subsequence refinement ==")
	if err := diogenes.WriteSubsequence(os.Stdout, a, sub); err != nil {
		log.Fatal(err)
	}

	// Table 1: apply the fix and compare.
	fmt.Println("\n== Table 1: estimate vs reality ==")
	orig, fixed, err := (&experiments.Engine{Workers: 1}).ActualReduction("cumf_als", *scale)
	if err != nil {
		log.Fatal(err)
	}
	actual := orig - fixed
	fmt.Printf("estimated benefit (subsequence %d..%d): %8.3fs (%5.2f%% of execution)\n",
		from, to, sub.Benefit.Seconds(), 100*float64(sub.Benefit)/float64(orig))
	fmt.Printf("actual reduction after the fix:         %8.3fs (%5.2f%% of execution)\n",
		actual.Seconds(), 100*float64(actual)/float64(orig))
	fmt.Printf("paper: estimated 137s (10.0%%), actual 106s (8.3%%), 77%% accurate\n")

	// The §5.2 headline: NVProf blames cudaDeviceSynchronize; Diogenes
	// shows removing it is worthless.
	fmt.Println("\n== Why resource profiles mislead here ==")
	for _, s := range a.SavingsByFunc() {
		fmt.Printf("  Diogenes: %-24s %8.3fs (%5.2f%%)\n", s.Func, s.Savings.Seconds(), s.Percent)
	}
	fmt.Println("  (NVProf attributes ~52% of execution to cudaDeviceSynchronize;")
	fmt.Println("   the paper verified removing those calls changed nothing.)")
}
