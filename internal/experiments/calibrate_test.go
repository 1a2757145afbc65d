package experiments

// Calibration harness: prints the reproduced tables so the workload
// constants can be compared against the paper's shapes. Run with
//   go test ./internal/experiments -run Calibrate -v -calibrate
// It is skipped unless the -calibrate flag is passed.

import (
	"flag"
	"fmt"
	"testing"
)

var calibrate = flag.Bool("calibrate", false, "print calibration tables")

func TestCalibrate(t *testing.T) {
	if !*calibrate {
		t.Skip("pass -calibrate to print the reproduction tables")
	}
	scale := 0.25
	eng := &Engine{Workers: 1}
	for _, name := range []string{"cumf_als", "cuibm", "amg", "rodinia_gaussian"} {
		row, err := eng.Table1For(name, scale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("T1 %-18s est %8.2fs (%5.2f%% | paper %5.2f%%)  act %8.2fs (%5.2f%% | paper %5.2f%%)  acc %5.1f%%  ovh %4.1fx\n",
			row.App, row.Estimated.Seconds(), row.EstimatedPct, row.PaperEstPct,
			row.Actual.Seconds(), row.ActualPct, row.PaperActPct, row.Accuracy, row.Overhead)

		rows, err := eng.Table2For(name, scale)
		if err != nil {
			t.Fatalf("%s table2: %v", name, err)
		}
		for _, r := range rows {
			nv := "crashed"
			if !r.NVProfCrashed {
				nv = fmt.Sprintf("%8.2fs (%5.1f%%, %d)", r.NVProfTime.Seconds(), r.NVProfPct, r.NVProfPos)
			}
			di := "      -"
			if r.DiogenesListed {
				di = fmt.Sprintf("%8.3fs (%5.2f%%, %d)", r.DiogenesSavings.Seconds(), r.DiogenesPct, r.DiogenesPos)
			}
			fmt.Printf("   %-26s nv %-24s hpc %8.2fs (%5.1f%%, %d)  dio %s\n",
				r.Func, nv, r.HPCTime.Seconds(), r.HPCPct, r.HPCPos, di)
		}
		fmt.Println()
	}
}
