package autofix

import (
	"strings"
	"testing"

	"diogenes/internal/apps"
	"diogenes/internal/cuda"
	"diogenes/internal/experiments"
	"diogenes/internal/ffm"
	"diogenes/internal/gpu"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// test helpers wiring the FFM pipeline to a given machine factory.
func experimentsConfig(f proc.Factory) ffm.Config {
	cfg := ffm.DefaultConfig()
	cfg.Factory = f
	return cfg
}

func runFFM(app proc.App, cfg ffm.Config) (*ffm.Report, error) { return ffm.Run(app, cfg) }

func experimentsSpec(name string) (apps.Spec, error) { return apps.ByName(name) }

// churnApp re-uploads an unchanged block and frees a scratch buffer while a
// kernel runs, every iteration. mutate makes the app overwrite the uploaded
// block mid-run, which must trip the correctness guard.
type churnApp struct {
	iters  int
	mutate bool
}

func (a *churnApp) Name() string { return "churn" }

func (a *churnApp) Run(p *proc.Process) error {
	block := p.Host.Alloc(32<<10, "config")
	out := p.Host.Alloc(4096, "out")
	dev, err := p.Ctx.Malloc(32<<10, "dev config")
	if err != nil {
		return err
	}
	devOut, err := p.Ctx.Malloc(4096, "dev out")
	if err != nil {
		return err
	}
	fill := make([]byte, 32<<10)
	simtime.NewRNG(3).Bytes(fill)
	if err := p.Host.Poke(block.Base(), fill); err != nil {
		return err
	}

	var runErr error
	for i := 0; i < a.iters && runErr == nil; i++ {
		i := i
		p.In("step", "churn.cpp", 30, func() {
			if a.mutate && i == a.iters/2 {
				// The app updates its "constant" block mid-run: the
				// deduplication assumption is wrong for this input.
				p.At(31)
				if runErr = p.Write(block.Base(), []byte{byte(i)}, 31); runErr != nil {
					return
				}
			}
			p.At(33)
			if runErr = p.Ctx.MemcpyH2D(dev.Base(), block.Base(), 32<<10); runErr != nil {
				return
			}
			scratch, err := p.Ctx.Malloc(8<<10, "scratch")
			if err != nil {
				runErr = err
				return
			}
			p.At(36)
			if _, err := p.Ctx.LaunchKernel(cuda.KernelSpec{
				Name: "k", Duration: simtime.Millisecond, Stream: gpu.LegacyStream,
				Writes: []cuda.KernelWrite{{Ptr: devOut.Base(), Size: 256, Seed: uint64(i)}},
			}); err != nil {
				runErr = err
				return
			}
			p.CPUWork(200 * simtime.Microsecond)
			p.At(40)
			if runErr = p.Ctx.Free(scratch); runErr != nil {
				return
			}
			p.CPUWork(300 * simtime.Microsecond)
			p.At(44)
			if runErr = p.Ctx.MemcpyD2H(out.Base(), devOut.Base(), 256); runErr != nil {
				return
			}
			if _, err := p.Read(out.Base(), 16, 45); err != nil {
				runErr = err
				return
			}
		})
	}
	return runErr
}

func planFor(t *testing.T, app proc.App) (*Plan, proc.Factory) {
	t.Helper()
	factory := proc.DefaultFactory()
	cfg := experimentsConfig(factory)
	rep, err := runFFM(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return BuildPlan(rep.Analysis), factory
}

func TestBuildPlanFindsRemedies(t *testing.T) {
	plan, _ := planFor(t, &churnApp{iters: 8})
	if len(plan.Actions) == 0 {
		t.Fatal("empty plan")
	}
	kinds := map[ActionKind]int{}
	for _, a := range plan.Actions {
		kinds[a.Kind]++
		if a.Estimated < 0 || a.Count == 0 || a.Label == "" {
			t.Fatalf("malformed action %+v", a)
		}
	}
	if kinds[DedupTransfer] == 0 {
		t.Error("no dedup-transfer action for the repeated upload")
	}
	if kinds[PoolFree] == 0 {
		t.Error("no pool-free action for the scratch churn")
	}
	// Sorted by estimate.
	for i := 1; i < len(plan.Actions); i++ {
		if plan.Actions[i].Estimated > plan.Actions[i-1].Estimated {
			t.Fatal("plan not sorted by estimate")
		}
	}
}

func TestApplyRealizesBenefit(t *testing.T) {
	app := &churnApp{iters: 8}
	plan, factory := planFor(t, app)
	v, err := Apply(app, factory, plan, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Valid {
		t.Fatalf("fix rejected: %s", v.GuardViolation)
	}
	if v.Realized <= 0 {
		t.Fatalf("no realized benefit: %+v", v)
	}
	if v.PatchedTime >= v.OriginalTime {
		t.Fatal("patched run not faster")
	}
	if v.SuppressedCalls == 0 {
		t.Fatal("nothing was suppressed")
	}
	if v.GuardedRanges == 0 {
		t.Fatal("no transfer source was guarded")
	}
	// Realized should be in the ballpark of the estimate (same order).
	ratio := float64(v.Realized) / float64(plan.Estimated)
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("realized/estimated ratio %.2f implausible", ratio)
	}
}

func TestGuardRejectsUnsafeDedup(t *testing.T) {
	// Plan against the non-mutating run (what the tool observed)...
	observed := &churnApp{iters: 8}
	plan, factory := planFor(t, observed)
	// ...but the production input mutates the block: the guard must trip
	// and the fix must be rejected, not silently produce wrong results.
	production := &churnApp{iters: 8, mutate: true}
	v, err := Apply(production, factory, plan, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if v.Valid {
		t.Fatal("unsafe deduplication accepted")
	}
	if !strings.Contains(v.GuardViolation, "write-protected") {
		t.Fatalf("violation text = %q", v.GuardViolation)
	}
}

func TestApplyWithoutGuard(t *testing.T) {
	app := &churnApp{iters: 6}
	plan, factory := planFor(t, app)
	opts := DefaultOptions()
	opts.Guard = false
	v, err := Apply(app, factory, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.GuardedRanges != 0 {
		t.Fatal("guard ran while disabled")
	}
	if !v.Valid || v.Realized <= 0 {
		t.Fatalf("unguarded apply failed: %+v", v)
	}
}

func TestAutofixOnModelledApps(t *testing.T) {
	// End-to-end: plan and apply on the paper's workloads; all plans must
	// validate and realize positive benefit.
	for _, name := range []string{"cumf_als", "rodinia_gaussian"} {
		rep, err := (&experiments.Engine{Workers: 1}).RunApp(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		plan := BuildPlan(rep.Analysis)
		if len(plan.Actions) == 0 {
			t.Fatalf("%s: empty plan", name)
		}
		spec, _ := experimentsSpec(name)
		v, err := Apply(spec.New(0.02, apps.Original), spec.Factory(), plan, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.Valid {
			t.Fatalf("%s: rejected: %s", name, v.GuardViolation)
		}
		if v.Realized <= 0 {
			t.Fatalf("%s: no realized benefit", name)
		}
	}
}

func TestActionKindStrings(t *testing.T) {
	if RemoveSync.String() == "" || PoolFree.String() == "" || DedupTransfer.String() == "" {
		t.Fatal("empty kind strings")
	}
}

func TestPropertyAutofixOnRandomApps(t *testing.T) {
	// For any generated workload: the plan applies cleanly (no guard trip
	// — random apps never mutate uploaded content after the fact), the
	// patched run is never slower, and realized benefit is nonnegative.
	for seed := uint64(100); seed <= 110; seed++ {
		app := apps.NewRandomApp(seed, 50)
		factory := proc.DefaultFactory()
		rep, err := runFFM(app, experimentsConfig(factory))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plan := BuildPlan(rep.Analysis)
		if len(plan.Actions) == 0 {
			continue // a benign workload is possible; nothing to fix
		}
		v, err := Apply(app, factory, plan, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !v.Valid {
			t.Fatalf("seed %d: guard tripped on non-mutating app: %s", seed, v.GuardViolation)
		}
		if v.PatchedTime > v.OriginalTime {
			t.Fatalf("seed %d: patched run slower: %v > %v", seed, v.PatchedTime, v.OriginalTime)
		}
		if v.Realized < 0 {
			t.Fatalf("seed %d: negative realized benefit", seed)
		}
	}
}

// TestAutofixVersusManualFix compares the automatic correction against the
// paper's manual fixes on all four applications: every plan must validate,
// and the automatic correction must realize at least as much as a third of
// the manual fix (it cannot hoist allocations or restructure code, only
// elide calls).
func TestAutofixVersusManualFix(t *testing.T) {
	rows, err := TableWith(&experiments.Engine{Workers: 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Valid {
			t.Errorf("%s: auto fix rejected: %s", r.App, r.GuardViolation)
			continue
		}
		if r.AutoRealized <= 0 {
			t.Errorf("%s: no automatic benefit", r.App)
		}
		if r.CallsElided == 0 {
			t.Errorf("%s: nothing elided", r.App)
		}
		if float64(r.AutoRealized) < 0.33*float64(r.ManualActual) {
			t.Errorf("%s: auto %.3fs far below manual %.3fs",
				r.App, r.AutoRealized.Seconds(), r.ManualActual.Seconds())
		}
	}
}

// TestOriginalTimeIsReferenceRun pins the equality EvaluateAppWith relies
// on: the unpatched build's uninstrumented runtime, whether measured the
// way Apply measures it or on the build ApplyWith patches, is the
// pipeline's reference run, rep.UninstrumentedTime.
func TestOriginalTimeIsReferenceRun(t *testing.T) {
	const scale = 0.05
	eng := experiments.NewEngine(2)
	for _, spec := range apps.Registry() {
		rep, err := eng.RunApp(spec.Name, scale)
		if err != nil {
			t.Fatal(err)
		}
		p0 := spec.Factory().New()
		if err := proc.SafeRun(spec.Build(scale, apps.Original, spec.Factory()), p0); err != nil {
			t.Fatal(err)
		}
		if got := p0.ExecTime(); got != rep.UninstrumentedTime {
			t.Errorf("%s: unpatched build ran %v, reference run %v", spec.Name, got, rep.UninstrumentedTime)
		}
		v, err := Apply(spec.New(scale, apps.Original), spec.Factory(), BuildPlan(rep.Analysis), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if v.OriginalTime != rep.UninstrumentedTime {
			t.Errorf("%s: Apply measured the original at %v, reference run %v", spec.Name, v.OriginalTime, rep.UninstrumentedTime)
		}
	}
}
