// Package experiments regenerates the paper's evaluation artifacts: Table 1
// (per-application estimated vs. actual benefit), Table 2 (per-CUDA-function
// comparison between NVProf, HPCToolkit and Diogenes), the §5.3 overhead
// multiples, and the Figure 6/7/8 tool displays. DESIGN.md's per-experiment
// index maps each artifact to the modules exercised here.
package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/profiler"
	"diogenes/internal/simtime"
)

// Table1Row reproduces one application row of Table 1.
type Table1Row struct {
	App          string
	Issues       string // problem kinds addressed ("Sync", "Sync and Mem Trans")
	Estimated    simtime.Duration
	EstimatedPct float64
	Actual       simtime.Duration
	ActualPct    float64
	// Accuracy is the smaller of est/actual and actual/est, the §5.1
	// "percent accurate to the real benefit obtained".
	Accuracy float64
	// Overhead is the §5.3 data-collection multiple for this application.
	Overhead float64
	// Paper-reported values for EXPERIMENTS.md comparison.
	PaperEstPct, PaperActPct float64
}

// paperTable1 records the published numbers for side-by-side reporting.
var paperTable1 = map[string]struct {
	issues         string
	estPct, actPct float64
}{
	"cumf_als":         {"Sync and Mem Trans", 10.0, 8.3},
	"cuibm":            {"Sync", 10.8, 17.6},
	"amg":              {"Sync", 6.8, 5.8},
	"rodinia_gaussian": {"Sync", 2.2, 2.1},
}

// AddressedEstimate extracts, from a report, the estimate for exactly the
// problems each paper fix addressed: the 10..23 subsequence for cumf_als
// (Figure 8), the contiguous_storage fold for cuIBM, the cudaMemset point
// for AMG, and the cudaThreadSynchronize fold for Rodinia.
func AddressedEstimate(name string, rep *ffm.Report) (simtime.Duration, error) {
	if _, err := apps.ByName(name); err != nil {
		return 0, err
	}
	a := rep.Analysis
	switch name {
	case "cumf_als":
		seqs := a.StaticSequences()
		if len(seqs) == 0 {
			return 0, errors.New("experiments: cumf_als produced no sequences")
		}
		top := seqs[0]
		from, to := 10, 23
		if len(top.Entries) < to {
			to = len(top.Entries)
			if from > to {
				from = 1
			}
		}
		sub, err := a.SubsequenceBenefit(top, from, to)
		if err != nil {
			return 0, err
		}
		return sub.Benefit, nil
	case "cuibm":
		for _, g := range a.Folds {
			if strings.Contains(g.Key, "cudaFree") && strings.Contains(g.Key, "contiguous_storage") {
				return g.Benefit, nil
			}
		}
		return 0, errors.New("experiments: cuibm contiguous_storage fold not found")
	case "amg":
		var total simtime.Duration
		for _, g := range a.SinglePoints {
			if strings.HasPrefix(g.Label, "cudaMemset") {
				total += g.Benefit
			}
		}
		if total == 0 {
			return 0, errors.New("experiments: amg cudaMemset point not found")
		}
		return total, nil
	case "rodinia_gaussian":
		for _, g := range a.Folds {
			if strings.HasPrefix(g.Label, "Fold on cudaThreadSynchronize") {
				return g.Benefit, nil
			}
		}
		return 0, errors.New("experiments: rodinia cudaThreadSynchronize fold not found")
	default:
		return 0, fmt.Errorf("experiments: no fix mapping for %q", name)
	}
}

// table1Assemble builds the row from the measured quantities.
func table1Assemble(name string, rep *ffm.Report, est, orig, fixed simtime.Duration) *Table1Row {
	actual := orig - fixed
	row := &Table1Row{
		App:          name,
		Estimated:    est,
		EstimatedPct: 100 * float64(est) / float64(orig),
		Actual:       actual,
		ActualPct:    100 * float64(actual) / float64(orig),
		Overhead:     rep.OverheadMultiple(),
	}
	if est > 0 && actual > 0 {
		acc := float64(est) / float64(actual)
		if acc > 1 {
			acc = 1 / acc
		}
		row.Accuracy = 100 * acc
	}
	if p, ok := paperTable1[name]; ok {
		row.Issues = p.issues
		row.PaperEstPct = p.estPct
		row.PaperActPct = p.actPct
	}
	return row
}

// NVProfConfigForScale scales the profiler's activity-record limit with the
// workload so that the §5.2 crash on cuIBM (beyond ~75M calls at full scale)
// reproduces at reduced scales too.
func NVProfConfigForScale(scale float64) profiler.NVProfConfig {
	cfg := profiler.DefaultNVProfConfig()
	cfg.MaxDriverRecords = int64(float64(cfg.MaxDriverRecords) * scale)
	if cfg.MaxDriverRecords < 1000 {
		cfg.MaxDriverRecords = 1000
	}
	return cfg
}

// Table2Row is one operation line of Table 2 for one application.
type Table2Row struct {
	App  string
	Func string

	NVProfTime    simtime.Duration
	NVProfPct     float64
	NVProfPos     int
	NVProfCrashed bool

	HPCTime simtime.Duration
	HPCPct  float64
	HPCPos  int

	DiogenesSavings simtime.Duration
	DiogenesPct     float64
	DiogenesPos     int
	DiogenesListed  bool // false: Diogenes collects no data on this call
}

// Table2For regenerates one application's section of Table 2: the
// comparison profilers run inline while the Diogenes report comes from
// the engine (pooled and cached when it is).
func (e *Engine) Table2For(name string, scale float64) ([]Table2Row, error) {
	spec, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	factory := spec.Factory()

	nv, nvErr := profiler.NVProf(spec.New(scale, apps.Original), factory, NVProfConfigForScale(scale))
	crashed := errors.Is(nvErr, profiler.ErrProfilerCrash)
	if nvErr != nil && !crashed {
		return nil, nvErr
	}
	hpc, err := profiler.HPCToolkit(spec.New(scale, apps.Original), factory, profiler.DefaultHPCToolkitConfig())
	if err != nil {
		return nil, err
	}
	rep, err := e.RunApp(name, scale)
	if err != nil {
		return nil, err
	}
	savings := rep.Analysis.SavingsByFunc()

	// Row ordering follows NVProf's summary (§5.2: "sorted by the order in
	// which they appear in the summary generated by NVProf"), falling back
	// to HPCToolkit's when NVProf crashed.
	funcs := make(map[string]bool)
	var order []string
	addAll := func(names []string) {
		for _, fn := range names {
			if !funcs[fn] {
				funcs[fn] = true
				order = append(order, fn)
			}
		}
	}
	if !crashed {
		for _, r := range nv.Rows {
			addAll([]string{r.Func})
		}
	} else {
		for _, r := range hpc.Rows {
			addAll([]string{r.Func})
		}
	}
	for _, s := range savings {
		addAll([]string{s.Func})
	}
	// Drop uninteresting rows the paper omits.
	filtered := order[:0]
	for _, fn := range order {
		if fn == "cudaStreamCreate" || fn == "cudaMallocHost" {
			continue
		}
		filtered = append(filtered, fn)
	}
	order = filtered

	var rows []Table2Row
	for _, fn := range order {
		row := Table2Row{App: name, Func: fn, NVProfCrashed: crashed}
		if !crashed {
			if r, ok := nv.Row(fn); ok {
				row.NVProfTime, row.NVProfPct, row.NVProfPos = r.Time, r.Percent, r.Pos
			}
		}
		if r, ok := hpc.Row(fn); ok {
			row.HPCTime, row.HPCPct, row.HPCPos = r.Time, r.Percent, r.Pos
		}
		for _, s := range savings {
			if s.Func == fn {
				row.DiogenesSavings = s.Savings
				row.DiogenesPct = rep.EstimatedBenefitPercent(s.Savings)
				row.DiogenesPos = s.Pos
				row.DiogenesListed = true
			}
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		pi, pj := rows[i].NVProfPos, rows[j].NVProfPos
		if crashed {
			pi, pj = rows[i].HPCPos, rows[j].HPCPos
		}
		if pi == 0 {
			pi = 1 << 20
		}
		if pj == 0 {
			pj = 1 << 20
		}
		return pi < pj
	})
	return rows, nil
}

// AutofixRow compares the paper's manual fix against the §6 automatic
// correction for one application.
type AutofixRow struct {
	App string
	// ManualActual is the runtime reduction of the paper's hand-written fix
	// (the Fixed build).
	ManualActual    simtime.Duration
	ManualActualPct float64
	// AutoRealized is the reduction the automatic plan achieves.
	AutoRealized    simtime.Duration
	AutoRealizedPct float64
	AutoEstimated   simtime.Duration
	CallsElided     int64
	GuardViolation  string
	Valid           bool
}
