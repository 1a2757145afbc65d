package experiments

import (
	"testing"

	"diogenes/internal/apps"
)

// testScale keeps the reproduction workloads small enough for unit tests
// while preserving every shape the assertions check.
const testScale = 0.1

func table1Row(t *testing.T, name string) *Table1Row {
	t.Helper()
	row, err := (&Engine{Workers: 1}).Table1For(name, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestTable1Shapes asserts the qualitative claims of Table 1: estimate and
// actual land in the paper's neighbourhoods, accuracy is in the 55-100%
// band, and the per-application orderings hold.
func TestTable1Shapes(t *testing.T) {
	rows := map[string]*Table1Row{}
	for _, name := range []string{"cumf_als", "cuibm", "amg", "rodinia_gaussian"} {
		rows[name] = table1Row(t, name)
	}

	type band struct{ lo, hi float64 }
	estBands := map[string]band{
		"cumf_als":         {8, 16}, // paper 10.0
		"cuibm":            {8, 17}, // paper 10.8
		"amg":              {4, 13}, // paper 6.8
		"rodinia_gaussian": {1, 4},  // paper 2.2
	}
	actBands := map[string]band{
		"cumf_als":         {6, 14},  // paper 8.3
		"cuibm":            {14, 28}, // paper 17.6
		"amg":              {4, 14},  // paper 5.8
		"rodinia_gaussian": {1, 4},   // paper 2.1
	}
	for name, row := range rows {
		if b := estBands[name]; row.EstimatedPct < b.lo || row.EstimatedPct > b.hi {
			t.Errorf("%s estimated %.2f%% outside [%v, %v]", name, row.EstimatedPct, b.lo, b.hi)
		}
		if b := actBands[name]; row.ActualPct < b.lo || row.ActualPct > b.hi {
			t.Errorf("%s actual %.2f%% outside [%v, %v]", name, row.ActualPct, b.lo, b.hi)
		}
		if row.Accuracy < 50 || row.Accuracy > 100 {
			t.Errorf("%s accuracy %.1f%% outside the paper's band", name, row.Accuracy)
		}
		if row.PaperEstPct == 0 {
			t.Errorf("%s missing paper reference values", name)
		}
	}

	// cuIBM's fix outperforms its estimate (the fix also removed the
	// malloc/free churn); cumf_als' and rodinia's estimates are close to
	// or above the realized benefit.
	if rows["cuibm"].ActualPct <= rows["cuibm"].EstimatedPct {
		t.Error("cuibm actual should exceed its estimate")
	}
	if rows["cumf_als"].ActualPct >= rows["cumf_als"].EstimatedPct {
		t.Error("cumf_als actual should fall short of its estimate")
	}
	// Rodinia has the highest accuracy of the four (paper: 92%).
	for _, name := range []string{"cumf_als", "cuibm"} {
		if rows[name].Accuracy >= rows["rodinia_gaussian"].Accuracy {
			t.Errorf("%s accuracy %.1f should be below rodinia's %.1f",
				name, rows[name].Accuracy, rows["rodinia_gaussian"].Accuracy)
		}
	}
}

// TestOverheadMultiples asserts §5.3: data collection costs multiples of
// the uninstrumented run, with cuIBM the most expensive and cumf_als around
// the band's lower end (paper: 8×–20×).
func TestOverheadMultiples(t *testing.T) {
	cumf := table1Row(t, "cumf_als")
	cuibm := table1Row(t, "cuibm")
	if cumf.Overhead < 4 || cumf.Overhead > 14 {
		t.Errorf("cumf_als overhead %.1fx outside [4, 14]", cumf.Overhead)
	}
	if cuibm.Overhead < 14 || cuibm.Overhead > 40 {
		t.Errorf("cuibm overhead %.1fx outside [14, 40]", cuibm.Overhead)
	}
	if cuibm.Overhead <= cumf.Overhead {
		t.Error("cuibm collection should cost more than cumf_als")
	}
}

// TestTable2CumfALS asserts the §5.2 headline: NVProf and HPCToolkit rank
// cudaDeviceSynchronize first with half the execution time, while Diogenes
// reports essentially nothing recoverable from it — the difference "can be
// as much as 99%".
func TestTable2CumfALS(t *testing.T) {
	rows, err := (&Engine{Workers: 1}).Table2For("cumf_als", testScale)
	if err != nil {
		t.Fatal(err)
	}
	byFunc := map[string]Table2Row{}
	for _, r := range rows {
		byFunc[r.Func] = r
	}

	ds := byFunc["cudaDeviceSynchronize"]
	if ds.NVProfPos != 1 {
		t.Errorf("NVProf ranks cudaDeviceSynchronize %d, want 1", ds.NVProfPos)
	}
	if ds.NVProfPct < 35 {
		t.Errorf("NVProf cudaDeviceSynchronize %.1f%%, want ~half of execution", ds.NVProfPct)
	}
	if !ds.DiogenesListed {
		t.Fatal("Diogenes lists no cudaDeviceSynchronize row")
	}
	if ds.DiogenesPct > 0.5 {
		t.Errorf("Diogenes cudaDeviceSynchronize savings %.2f%%, want ≈0", ds.DiogenesPct)
	}
	// The magnitude difference NVProf vs Diogenes is >99%.
	if ds.DiogenesSavings*50 > ds.NVProfTime {
		t.Errorf("difference < 98%%: nvprof %v vs diogenes %v", ds.NVProfTime, ds.DiogenesSavings)
	}

	free := byFunc["cudaFree"]
	if free.DiogenesPos != 1 {
		t.Errorf("Diogenes ranks cudaFree %d, want 1", free.DiogenesPos)
	}
	// Diogenes collects nothing on cudaMalloc and cudaLaunchKernel.
	if byFunc["cudaMalloc"].DiogenesListed {
		t.Error("Diogenes listed cudaMalloc")
	}
	if byFunc["cudaLaunchKernel"].DiogenesListed {
		t.Error("Diogenes listed cudaLaunchKernel")
	}
	// HPCToolkit reports lower shares than NVProf (§5.2's discrepancy).
	if byFunc["cudaDeviceSynchronize"].HPCPct >= ds.NVProfPct {
		t.Error("HPCToolkit share should be below NVProf's")
	}
}

// TestTable2CuIBMCrash asserts the NVProf crash and the fallback ordering.
func TestTable2CuIBMCrash(t *testing.T) {
	rows, err := (&Engine{Workers: 1}).Table2For("cuibm", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if !r.NVProfCrashed {
			t.Fatalf("NVProf did not crash on cuibm (row %s)", r.Func)
		}
		if r.NVProfTime != 0 {
			t.Fatal("crashed profiler produced times")
		}
	}
	byFunc := map[string]Table2Row{}
	for _, r := range rows {
		byFunc[r.Func] = r
	}
	if byFunc["cudaFree"].DiogenesPos != 1 {
		t.Errorf("Diogenes cuibm top row = cudaFree expected, got pos %d", byFunc["cudaFree"].DiogenesPos)
	}
	if !byFunc["cudaMemcpyAsync"].DiogenesListed {
		t.Error("conditional-sync cudaMemcpyAsync missing from Diogenes rows")
	}
	if byFunc["cudaFuncGetAttributes"].DiogenesListed {
		t.Error("Diogenes listed cudaFuncGetAttributes")
	}
	if byFunc["cudaFuncGetAttributes"].HPCTime == 0 {
		t.Error("HPCToolkit should see cudaFuncGetAttributes")
	}
}

// TestTable2AMG asserts the memset finding: cudaMemset tops Diogenes'
// savings even though profilers see it merely as one call among many.
func TestTable2AMG(t *testing.T) {
	rows, err := (&Engine{Workers: 1}).Table2For("amg", testScale)
	if err != nil {
		t.Fatal(err)
	}
	byFunc := map[string]Table2Row{}
	for _, r := range rows {
		byFunc[r.Func] = r
	}
	ms := byFunc["cudaMemset"]
	if !ms.DiogenesListed || ms.DiogenesPos > 2 {
		t.Errorf("cudaMemset Diogenes pos = %d, want 1-2", ms.DiogenesPos)
	}
	if !byFunc["cudaFree"].DiogenesListed {
		t.Error("cudaFree missing from AMG Diogenes rows")
	}
	if byFunc["cudaMallocManaged"].DiogenesListed {
		t.Error("Diogenes listed cudaMallocManaged")
	}
}

// TestTable2Rodinia asserts the Figure 4 small-benefit case: NVProf blames
// cudaThreadSynchronize for ~95% of execution; Diogenes knows only ~2% is
// recoverable.
func TestTable2Rodinia(t *testing.T) {
	rows, err := (&Engine{Workers: 1}).Table2For("rodinia_gaussian", testScale)
	if err != nil {
		t.Fatal(err)
	}
	byFunc := map[string]Table2Row{}
	for _, r := range rows {
		byFunc[r.Func] = r
	}
	ts := byFunc["cudaThreadSynchronize"]
	if ts.NVProfPos != 1 || ts.NVProfPct < 85 {
		t.Errorf("NVProf threadSync = %.1f%% pos %d, want ~95%% pos 1", ts.NVProfPct, ts.NVProfPos)
	}
	if ts.DiogenesPct > 5 {
		t.Errorf("Diogenes threadSync savings %.1f%%, want ~2%%", ts.DiogenesPct)
	}
}

func TestActualReductionRunsBothVariants(t *testing.T) {
	orig, fixed, err := (&Engine{Workers: 1}).ActualReduction("rodinia_gaussian", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if fixed >= orig {
		t.Fatalf("fixed %v not faster than original %v", fixed, orig)
	}
}

func TestAddressedEstimateUnknownApp(t *testing.T) {
	if _, err := AddressedEstimate("hpl", nil); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestNVProfConfigForScale(t *testing.T) {
	full := NVProfConfigForScale(1.0)
	small := NVProfConfigForScale(0.1)
	if small.MaxDriverRecords >= full.MaxDriverRecords {
		t.Fatal("limit not scaled")
	}
	tiny := NVProfConfigForScale(0.000001)
	if tiny.MaxDriverRecords < 1000 {
		t.Fatal("limit floor missing")
	}
}

func TestTable1AllApps(t *testing.T) {
	rows, err := (&Engine{Workers: 1}).Table1(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].App != "cumf_als" || rows[3].App != "rodinia_gaussian" {
		t.Fatalf("row order: %v, %v", rows[0].App, rows[3].App)
	}
}

// TestReferenceRunIsOriginalRuntime pins the identity Table 1 relies on:
// the pipeline's uninstrumented reference run is the Original build's
// uninstrumented run, so a row takes its Original runtime from the report.
// Once the engine holds the report, ActualReduction simulates only the
// Fixed build.
func TestReferenceRunIsOriginalRuntime(t *testing.T) {
	for _, spec := range apps.Registry() {
		for _, scale := range []float64{goldenScale, testScale} {
			fresh, _, err := (&Engine{Workers: 1}).ActualReduction(spec.Name, scale)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(2)
			rep, err := eng.RunApp(spec.Name, scale)
			if err != nil {
				t.Fatal(err)
			}
			if rep.UninstrumentedTime != fresh {
				t.Fatalf("%s@%g: reference run %v, Original run %v", spec.Name, scale, rep.UninstrumentedTime, fresh)
			}
			_, missesBefore, _ := eng.Cache.Stats()
			orig, _, err := eng.ActualReduction(spec.Name, scale)
			if err != nil {
				t.Fatal(err)
			}
			if orig != fresh {
				t.Fatalf("%s@%g: ActualReduction Original %v, want %v", spec.Name, scale, orig, fresh)
			}
			if _, misses, _ := eng.Cache.Stats(); misses != missesBefore+1 {
				t.Fatalf("%s@%g: ActualReduction made %d cache misses after the pipeline, want 1 (the Fixed build)", spec.Name, scale, misses-missesBefore)
			}
		}
	}
}
