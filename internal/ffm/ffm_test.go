package ffm

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"diogenes/internal/apps"
	"diogenes/internal/cuda"
	"diogenes/internal/ffm/graph"
	"diogenes/internal/gpu"
	"diogenes/internal/hashstore"
	"diogenes/internal/obs"
	"diogenes/internal/proc"
	"diogenes/internal/sched"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// testApp is a synthetic workload exercising every problem class:
//   - a duplicate H2D transfer every iteration after the first (same bytes);
//   - an unnecessary cudaDeviceSynchronize whose protected data is never
//     touched;
//   - a required synchronization whose result is read immediately (not a
//     problem);
//   - a required synchronization whose result is read only after a long
//     stretch of unrelated CPU work (misplaced);
//   - a cudaFree performing an implicit synchronization.
type testApp struct {
	iters int
}

func (a *testApp) Name() string { return "ffm-test-app" }

func (a *testApp) Run(p *proc.Process) error {
	var err error
	p.In("main", "main.cpp", 1, func() {
		input := p.Host.Alloc(64*1024, "input")
		result := p.Host.Alloc(64*1024, "result")
		payload := make([]byte, 64*1024)
		simtime.NewRNG(1).Bytes(payload)
		if err = p.Host.Poke(input.Base(), payload); err != nil {
			return
		}
		for i := 0; i < a.iters; i++ {
			p.In("step", "solver.cpp", 100, func() {
				var dev *gpu.DevBuf
				dev, err = p.Ctx.Malloc(64*1024, "work")
				if err != nil {
					return
				}
				// Same payload every iteration: duplicate from iter 2 on.
				p.At(101)
				if err = p.Ctx.MemcpyH2D(dev.Base(), input.Base(), 64*1024); err != nil {
					return
				}
				p.At(103)
				if _, err = p.Ctx.LaunchKernel(cuda.KernelSpec{
					Name: "compute", Duration: 300 * simtime.Microsecond,
					Stream: gpu.LegacyStream,
					Writes: []cuda.KernelWrite{{Ptr: dev.Base(), Size: 1024, Seed: uint64(i + 1)}},
				}); err != nil {
					return
				}
				// Pull the (unique per iteration) result down; the memcpy
				// synchronizes implicitly, and the prompt read resolves it.
				p.At(105)
				if err = p.Ctx.MemcpyD2H(result.Base(), dev.Base(), 1024); err != nil {
					return
				}
				if _, err = p.Read(result.Base(), 16, 106); err != nil {
					return
				}
				p.CPUWork(50 * simtime.Microsecond)

				// Required, well-placed explicit sync: the most recent sync
				// before the prompt read of GPU-writable data.
				p.At(110)
				if _, err = p.Ctx.LaunchKernel(cuda.KernelSpec{
					Name: "compute2", Duration: 200 * simtime.Microsecond,
					Stream: gpu.LegacyStream,
				}); err != nil {
					return
				}
				p.Ctx.DeviceSynchronize()
				if _, err = p.Read(result.Base(), 16, 112); err != nil {
					return
				}
				p.CPUWork(100 * simtime.Microsecond)

				// Unnecessary sync: nothing GPU-written is accessed after.
				p.At(115)
				p.Ctx.DeviceSynchronize()
				p.CPUWork(200 * simtime.Microsecond)

				// Misplaced: sync, then long unrelated CPU work, then use.
				p.At(118)
				if _, err = p.Ctx.LaunchKernel(cuda.KernelSpec{
					Name: "compute3", Duration: 200 * simtime.Microsecond,
					Stream: gpu.LegacyStream,
				}); err != nil {
					return
				}
				p.Ctx.DeviceSynchronize()
				p.CPUWork(500 * simtime.Microsecond) // long gap before use
				if _, err = p.Read(result.Base(), 16, 122); err != nil {
					return
				}

				// Implicit sync at free, nothing accessed after.
				p.At(130)
				if err = p.Ctx.Free(dev); err != nil {
					return
				}
				p.CPUWork(100 * simtime.Microsecond)
			})
			if err != nil {
				return
			}
		}
	})
	return err
}

func runPipeline(t *testing.T, iters int) *Report {
	t.Helper()
	rep, err := Run(&testApp{iters: iters}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBaselineFindsSyncFuncs(t *testing.T) {
	base, err := RunBaseline(&testApp{iters: 3}, proc.DefaultFactory(), DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if base.SyncFunnel != cuda.FuncInternalSync {
		t.Fatalf("funnel = %q", base.SyncFunnel)
	}
	want := map[cuda.Func]bool{
		cuda.FuncMemcpy: true, cuda.FuncDeviceSync: true, cuda.FuncFree: true,
	}
	got := make(map[cuda.Func]bool)
	for _, fn := range base.SyncFuncs {
		got[fn] = true
	}
	for fn := range want {
		if !got[fn] {
			t.Errorf("sync func %q not discovered (got %v)", fn, base.SyncFuncs)
		}
	}
	if got[cuda.FuncMalloc] || got[cuda.FuncLaunchKernel] {
		t.Errorf("non-synchronizing function listed: %v", base.SyncFuncs)
	}
	// Per iteration: memcpy H2D, memcpy D2H, 3× device sync, free = 6.
	if base.SyncEvents != 18 {
		t.Errorf("SyncEvents = %d, want 18", base.SyncEvents)
	}
	if base.ExecTime <= 0 || base.TotalCalls == 0 {
		t.Error("baseline missing exec time or call count")
	}
}

func TestDetailedTracingRecords(t *testing.T) {
	factory := proc.DefaultFactory()
	app := &testApp{iters: 2}
	base, err := RunBaseline(app, factory, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunDetailedTracing(app, factory, base, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if run.Stage != 2 || run.App != app.Name() {
		t.Fatalf("run header = %+v", run)
	}
	// Per iteration: 2 transfers (H2D + D2H) and 4 sync records
	// (3 device syncs + free).
	if got := len(run.OfClass(trace.ClassTransfer)); got != 4 {
		t.Errorf("transfers = %d, want 4", got)
	}
	if got := len(run.OfClass(trace.ClassSync)); got != 8 {
		t.Errorf("syncs = %d, want 8", got)
	}
	for i, rec := range run.Records {
		if len(rec.Stack) == 0 {
			t.Fatalf("record %d missing stack", i)
		}
		if rec.Stack.Leaf().Function != "step" {
			t.Fatalf("record %d leaf = %v", i, rec.Stack.Leaf())
		}
	}
}

func TestMemoryTracingAnnotations(t *testing.T) {
	factory := proc.DefaultFactory()
	app := &testApp{iters: 3}
	base, err := RunBaseline(app, factory, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunMemoryTracing(app, factory, base, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	// The H2D payload repeats every iteration: iterations 2 and 3 are dups.
	var h2dDups, h2dTotal int
	for _, rec := range run.OfClass(trace.ClassTransfer) {
		if rec.Dir == "HtoD" {
			h2dTotal++
			if rec.Duplicate {
				h2dDups++
			}
			if rec.Hash == "" {
				t.Error("transfer missing content hash")
			}
		}
	}
	if h2dTotal != 3 || h2dDups != 2 {
		t.Errorf("H2D: %d total %d dups, want 3/2", h2dTotal, h2dDups)
	}

	// Sync classification inputs: the first device sync of each iteration
	// is followed by a D2H whose implicit sync is resolved by the read; the
	// second device sync sees no access.
	syncs := run.OfClass(trace.ClassSync)
	var accessed, unaccessed int
	for _, rec := range syncs {
		if rec.ProtectedAccess {
			accessed++
			if rec.AccessSite.IsZero() {
				t.Error("accessed sync missing site")
			}
		} else {
			unaccessed++
		}
	}
	if accessed == 0 || unaccessed == 0 {
		t.Errorf("accessed=%d unaccessed=%d, want both nonzero", accessed, unaccessed)
	}
}

// TestMemoryTracingHashesOnFirstSight pins stage 3's hashing contract on
// every registry app: each transfer that carries a payload (the host<->
// device copies) has its digest as soon as the stage returns, with no
// render step. Every payload is one store insert, whose digest is either
// computed (hashstore/sha256_computed) or taken from a memo
// (hashstore/sha256_avoided). On these apps every duplicate is a uniform
// payload or a re-read of an unchanged source, so the memos answer all of
// them and the store computes exactly one sha256 per distinct payload.
func TestMemoryTracingHashesOnFirstSight(t *testing.T) {
	for _, spec := range apps.Registry() {
		t.Run(spec.Name, func(t *testing.T) {
			factory := spec.Factory()
			app := spec.Build(0.05, apps.Original, factory)
			base, err := RunBaseline(app, factory, DefaultOverheads())
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			run, err := runMemoryTracing(app, factory, base, DefaultOverheads(), reg)
			if err != nil {
				t.Fatal(err)
			}
			distinct := map[string]bool{}
			payloads := 0
			for _, rec := range run.OfClass(trace.ClassTransfer) {
				if rec.Dir != "HtoD" && rec.Dir != "DtoH" {
					if rec.Hash != "" {
						t.Fatalf("record %d (%s %s) carries no payload but has hash %q", rec.Seq, rec.Func, rec.Dir, rec.Hash)
					}
					continue
				}
				payloads++
				if !hashstore.ValidDigest(rec.Hash) {
					t.Fatalf("record %d (%s %s): hash %q is not a digest", rec.Seq, rec.Func, rec.Dir, rec.Hash)
				}
				distinct[rec.Hash] = true
			}
			if payloads == 0 {
				t.Fatal("no payload-carrying transfers")
			}
			computed := reg.Counter("hashstore/sha256_computed").Value()
			avoided := reg.Counter("hashstore/sha256_avoided").Value()
			if computed+avoided != int64(payloads) {
				t.Errorf("store saw %d inserts, want one per payload-carrying transfer (%d)", computed+avoided, payloads)
			}
			if computed != int64(len(distinct)) {
				t.Errorf("sha256_computed = %d, want %d (one per distinct payload; a memo answers every duplicate)", computed, len(distinct))
			}
		})
	}
}

func TestSyncUseMeasuresFirstUse(t *testing.T) {
	factory := proc.DefaultFactory()
	app := &testApp{iters: 2}
	base, _ := RunBaseline(app, factory, DefaultOverheads())
	s3, err := RunMemoryTracing(app, factory, base, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	s4, stageTime, err := RunSyncUse(app, factory, base, s3, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if stageTime <= 0 {
		t.Fatal("stage 4 did not run")
	}
	if s4.Stage != 4 {
		t.Fatalf("stage = %d", s4.Stage)
	}
	var quick, slow int
	for _, rec := range s4.Records {
		if !rec.ProtectedAccess {
			continue
		}
		// FirstUse is measured on the overhead-compensated timeline, so a
		// promptly-consumed synchronization can legitimately read 0.
		if rec.FirstUse > 400*simtime.Microsecond {
			slow++
		} else {
			quick++
		}
	}
	if quick == 0 {
		t.Error("no promptly-used synchronization measured")
	}
	if slow == 0 {
		t.Error("no late-used (misplaced) synchronization measured")
	}
	// Original stage-3 run untouched.
	for _, rec := range s3.Records {
		if rec.FirstUse != 0 {
			t.Fatal("RunSyncUse mutated stage 3 records")
		}
	}
}

func TestFullPipelineClassification(t *testing.T) {
	rep := runPipeline(t, 3)
	counts := rep.Analysis.ProblemCounts()
	if counts[graph.UnnecessarySync] == 0 {
		t.Error("no unnecessary synchronizations found")
	}
	if counts[graph.MisplacedSync] == 0 {
		t.Error("no misplaced synchronizations found")
	}
	if counts[graph.UnnecessaryTransfer] != 2 {
		t.Errorf("unnecessary transfers = %d, want 2", counts[graph.UnnecessaryTransfer])
	}
	if rep.Analysis.TotalBenefit() <= 0 {
		t.Error("no benefit estimated")
	}
	if got := rep.Analysis.Percent(rep.Analysis.TotalBenefit()); got <= 0 || got >= 100 {
		t.Errorf("benefit percent = %v", got)
	}
}

func TestPipelineOverheadMultiple(t *testing.T) {
	rep := runPipeline(t, 3)
	if rep.CollectionCost() <= rep.UninstrumentedTime {
		t.Fatal("collection not more expensive than uninstrumented run")
	}
	// The synthetic test app is tiny and transfer-heavy, so hashing makes
	// its multiple far larger than the real applications' 8×–20×; the
	// bound here only guards against the accounting breaking entirely.
	m := rep.OverheadMultiple()
	if m < 2 || m > 500 {
		t.Fatalf("overhead multiple %.1f out of plausible range", m)
	}
	if rep.Stage3Time <= rep.Stage2Time {
		t.Error("stage 3 (hashing + load/store) should cost more than stage 2")
	}
}

func TestGroupingsProduced(t *testing.T) {
	rep := runPipeline(t, 3)
	a := rep.Analysis
	if len(a.SinglePoints) == 0 || len(a.Folds) == 0 || len(a.Sequences) == 0 {
		t.Fatalf("groupings: %d points, %d folds, %d seqs",
			len(a.SinglePoints), len(a.Folds), len(a.Sequences))
	}
	if len(a.Overview) != len(a.Folds)+len(a.Sequences) {
		t.Fatal("overview should merge folds and sequences")
	}
	for i := 1; i < len(a.Overview); i++ {
		if a.Overview[i].Benefit > a.Overview[i-1].Benefit {
			t.Fatal("overview not sorted by benefit")
		}
	}
	if top := a.Overview[0]; top.Benefit <= 0 {
		t.Fatalf("top group = %+v", top)
	}
}

func TestSavingsByFuncExcludesNonProblematic(t *testing.T) {
	rep := runPipeline(t, 3)
	savings := rep.Analysis.SavingsByFunc()
	if len(savings) == 0 {
		t.Fatal("no savings rows")
	}
	for i, fs := range savings {
		if fs.Pos != i+1 {
			t.Fatalf("pos %d = %d", i, fs.Pos)
		}
		if fs.Func == "cudaMalloc" || fs.Func == "cudaLaunchKernel" {
			t.Fatalf("non-problematic function %q in savings", fs.Func)
		}
		if i > 0 && fs.Savings > savings[i-1].Savings {
			t.Fatal("savings not sorted")
		}
	}
}

func TestSubsequenceRefinement(t *testing.T) {
	rep := runPipeline(t, 3)
	var seq graph.Group
	found := false
	for _, s := range rep.Analysis.Sequences {
		if len(s.Nodes) >= 2 {
			seq = s
			found = true
			break
		}
	}
	if !found {
		t.Skip("no multi-node sequence in this workload")
	}
	sub, err := rep.Analysis.Subsequence(seq, 2, len(seq.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Benefit < 0 || sub.Benefit > seq.Benefit {
		t.Fatalf("sub benefit %v vs seq %v", sub.Benefit, seq.Benefit)
	}
}

func TestAnalysisJSONExport(t *testing.T) {
	rep := runPipeline(t, 2)
	var buf bytes.Buffer
	if err := rep.Analysis.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	for _, key := range []string{"app", "execTime", "totalBenefit", "overview", "savingsByFunc"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("export missing %q", key)
		}
	}
	if !strings.Contains(buf.String(), "ffm-test-app") {
		t.Error("app name missing from export")
	}
}

func TestBuildGraphStructure(t *testing.T) {
	run := &trace.Run{
		App: "x", ExecTime: 1000,
		Records: []trace.Record{
			{Seq: 1, Func: "cudaMemcpy", Class: trace.ClassTransfer, Entry: 100, Exit: 200, Duplicate: true},
			{Seq: 2, Func: "cudaDeviceSynchronize", Class: trace.ClassSync, Entry: 300, Exit: 500},
			{Seq: 3, Func: "cudaDeviceSynchronize", Class: trace.ClassSync, Entry: 500, Exit: 600,
				ProtectedAccess: true, FirstUse: 200},
		},
	}
	opts := AnalysisOptions{MisplacedThreshold: 100}
	g := BuildGraph(run, opts)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nodes: CWork(0-100), CLaunch, CWork(200-300), CWait, CWait, CWork tail.
	if len(g.CPU) != 6 {
		t.Fatalf("nodes = %d: %+v", len(g.CPU), g.CPU)
	}
	if g.CPU[1].Problem != graph.UnnecessaryTransfer {
		t.Fatal("dup transfer not flagged")
	}
	if g.CPU[3].Problem != graph.UnnecessarySync {
		t.Fatal("unaccessed sync not flagged")
	}
	if g.CPU[4].Problem != graph.MisplacedSync || g.CPU[4].FirstUseTime != 200 {
		t.Fatalf("late-use sync = %+v", g.CPU[4])
	}
	if g.CPU[5].Type != graph.CWork || g.CPU[5].OutCPU != 400 {
		t.Fatalf("tail = %+v", g.CPU[5])
	}
}

func TestBuildGraphPromptUseIsNotProblem(t *testing.T) {
	run := &trace.Run{
		App: "x", ExecTime: 1000,
		Records: []trace.Record{
			{Seq: 1, Func: "cudaDeviceSynchronize", Class: trace.ClassSync, Entry: 0, Exit: 100,
				ProtectedAccess: true, FirstUse: 10},
		},
	}
	g := BuildGraph(run, AnalysisOptions{MisplacedThreshold: 100})
	if g.CPU[0].Problematic() {
		t.Fatal("promptly-used sync flagged as problem")
	}
}

func TestMatchStage2Timing(t *testing.T) {
	s2 := &trace.Run{ExecTime: 500, Records: []trace.Record{
		{Seq: 1, Entry: 10, Exit: 20, SyncWait: 5},
	}}
	s4 := &trace.Run{ExecTime: 900, Records: []trace.Record{
		{Seq: 1, Entry: 100, Exit: 300, SyncWait: 80, Duplicate: true},
	}}
	MatchStage2Timing(s4, s2)
	r := s4.Records[0]
	if r.Entry != 10 || r.Exit != 20 || r.SyncWait != 5 {
		t.Fatalf("timing not matched: %+v", r)
	}
	if !r.Duplicate {
		t.Fatal("annotation lost")
	}
	if s4.ExecTime != 500 {
		t.Fatalf("exec time = %v", s4.ExecTime)
	}
}

func TestPipelineDeterminism(t *testing.T) {
	a := runPipeline(t, 2)
	b := runPipeline(t, 2)
	if a.UninstrumentedTime != b.UninstrumentedTime {
		t.Fatal("uninstrumented times differ across runs")
	}
	if a.Analysis.TotalBenefit() != b.Analysis.TotalBenefit() {
		t.Fatal("benefit estimates differ across runs")
	}
	if a.OverheadMultiple() != b.OverheadMultiple() {
		t.Fatal("overhead differs across runs")
	}
}

// hangingApp deadlocks: it launches a never-completing kernel and then
// synchronizes. The pipeline must report the deadlock as an error, not
// crash the tool.
type hangingApp struct{}

func (hangingApp) Name() string { return "hanging" }

func (hangingApp) Run(p *proc.Process) error {
	p.In("main", "hang.cpp", 1, func() {
		_, _ = p.Ctx.LaunchKernel(cuda.KernelSpec{
			Name: "spin", Duration: simtime.Duration(simtime.Infinity), Stream: gpu.LegacyStream,
		})
		p.Ctx.DeviceSynchronize()
	})
	return nil
}

func TestPipelineSurvivesDeadlockedApp(t *testing.T) {
	_, err := Run(hangingApp{}, DefaultConfig())
	if err == nil {
		t.Fatal("deadlocked app produced no error")
	}
	if !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("error = %v, want deadlock report", err)
	}
}

// panickingApp faults with an ordinary Go panic, which proc.SafeRun does
// not recover (it only converts simulated deadlocks).
type panickingApp struct{}

func (panickingApp) Name() string { return "panicking" }

func (panickingApp) Run(*proc.Process) error { panic("injected app fault") }

// TestPipelineContainsPanickingApp runs a panicking application with a
// zero Workers: the serial stage path is the same sched pool as the
// overlapped one, so the panic comes back as a contained
// *sched.PanicError instead of escaping Run — with the same error text
// when the stages overlap.
func TestPipelineContainsPanickingApp(t *testing.T) {
	var want string
	for _, workers := range []int{0, 2} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		_, err := Run(panickingApp{}, cfg)
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error = %v, want a *sched.PanicError", workers, err)
		}
		if pe.Value != "injected app fault" {
			t.Fatalf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if workers == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q as at workers=0", workers, err, want)
		}
	}
}

func TestOverlapStats(t *testing.T) {
	rep := runPipeline(t, 3)
	st := rep.Overlap()
	if st.ExecTime != rep.UninstrumentedTime {
		t.Fatal("exec time mismatch")
	}
	if st.GPUBusy <= 0 || st.GPUBusy > st.ExecTime {
		t.Fatalf("GPUBusy = %v of %v", st.GPUBusy, st.ExecTime)
	}
	if st.GPUBusy+st.GPUIdle != st.ExecTime {
		t.Fatal("busy + idle != exec")
	}
	if st.GPUUtilization <= 0 || st.GPUUtilization > 1 {
		t.Fatalf("utilization = %v", st.GPUUtilization)
	}
	if st.CPUBlocked <= 0 || st.BlockedShare <= 0 {
		t.Fatal("no blocked time measured")
	}
}

// TestIntroductionHeadline reproduces the §1 claim: "problematic
// synchronizations and memory transfers can account for as much as 85% of
// execution time in real world applications".
func TestIntroductionHeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Factory = apps.ExtremeFactory()
	rep, err := Run(apps.NewExtreme(0.1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pct := rep.Analysis.Percent(rep.Analysis.TotalBenefit())
	if pct < 75 || pct > 95 {
		t.Fatalf("recoverable share = %.1f%%, want ~85%%", pct)
	}
}
