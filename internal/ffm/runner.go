package ffm

import (
	"context"
	"fmt"

	"diogenes/internal/gpu"
	"diogenes/internal/obs"
	"diogenes/internal/proc"
	"diogenes/internal/sched"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// Config configures a full FFM run.
type Config struct {
	Factory   proc.Factory
	Overheads Overheads
	Analysis  AnalysisOptions
	// Workers bounds how many stage chains run at once. 0 or 1 runs the
	// stages one after another, in pipeline order; 2 or more overlaps the
	// reference run with stage 1, and stage 2 (detailed tracing) with
	// stages 3→4 (memory tracing, then sync-use). Both settings go through
	// the same sched pool, so a panicking stage is a *sched.PanicError
	// either way. Every stage executes the application in its own fresh
	// process on its own virtual clock, so the report is byte-identical
	// regardless of Workers.
	Workers int
	// Obs, when non-nil, receives the run's self-measurement: one span per
	// pipeline stage (virtual-time attributed, so the span layout is
	// byte-identical serial vs parallel), per-subsystem metrics, and the
	// per-application self-overhead report. A nil observer costs only nil
	// checks; recording never advances any virtual clock, so the Report is
	// identical with or without it.
	Obs *obs.Observer
	// Parent, when non-nil, becomes the pipeline's span parent instead of
	// the observer's root. Fleet analysis uses it to group each rank's
	// five-stage pipeline under that rank's span.
	Parent *obs.Span
}

// stageWidth is the width of the pool the stage chains run on: 1 runs
// them in submission order and stops at the first error, 2 overlaps them.
func (c Config) stageWidth() int {
	if c.Workers > 1 {
		return 2
	}
	return 1
}

// DefaultConfig returns the standard tool configuration.
func DefaultConfig() Config {
	return Config{
		Factory:   proc.DefaultFactory(),
		Overheads: DefaultOverheads(),
		Analysis:  DefaultAnalysisOptions(),
	}
}

// Report is the complete output of the FFM pipeline for one application.
type Report struct {
	App string

	// UninstrumentedTime is the application's execution time with no
	// probes attached — the denominator for benefit percentages and the
	// overhead multiple.
	UninstrumentedTime simtime.Duration

	Baseline *BaselineResult
	Analysis *Analysis

	// Trace is the fully annotated stage-4 run (stage-2 timings merged in)
	// that stage 5 analysed — the JSON interchange payload other tools can
	// consume (§4).
	Trace *trace.Run

	// DeviceOps is the device-operation log of the uninstrumented
	// reference run, for timeline visualization. Its timestamps line up
	// with the overhead-compensated trace timestamps to within the
	// compensation error. The reference run is the only run of the
	// pipeline that keeps an op log (proc.OpLog); the collection stages
	// keep none.
	DeviceOps []*gpu.Op

	// Stage execution times, for the §5.3 overhead accounting.
	Stage1Time simtime.Duration
	Stage2Time simtime.Duration
	Stage3Time simtime.Duration
	Stage4Time simtime.Duration

	// Per-stage instrumentation charges: the share of each StageNTime that
	// the tool's own probes consumed (trampolines, hashing, load/store
	// snippets). StageNTime − StageNOverhead is the application's time on
	// its own compensated timeline.
	Stage1Overhead simtime.Duration
	Stage2Overhead simtime.Duration
	Stage3Overhead simtime.Duration
	Stage4Overhead simtime.Duration

	skew *FleetSkew
}

// Skew returns the collective-skew attribution of the world the reference
// run simulated, or nil when the application is not a SkewApp.
func (r *Report) Skew() *FleetSkew { return r.skew }

// SkewApp is one rank's view of a multi-rank world. The pipeline's
// reference run calls RunSkew in place of Run, which also returns the
// world's collective-skew attribution. ffm declares it so that it imports
// no launch package.
type SkewApp interface {
	proc.App
	RunSkew(p *proc.Process) (*FleetSkew, error)
}

// skewRun adapts a SkewApp's RunSkew to proc.App, storing the attribution
// in *out, so the reference run keeps proc.SafeRun's deadlock recovery.
type skewRun struct {
	SkewApp
	out **FleetSkew
}

func (r skewRun) Run(p *proc.Process) (err error) {
	*r.out, err = r.RunSkew(p)
	return err
}

// CollectionCost is the total virtual time spent executing the application
// under instrumentation across all collection stages.
func (r *Report) CollectionCost() simtime.Duration {
	return r.Stage1Time + r.Stage2Time + r.Stage3Time + r.Stage4Time
}

// OverheadMultiple is CollectionCost divided by the uninstrumented
// execution time — the figure §5.3 reports as 8× (cumf_als) to 20× (cuIBM).
func (r *Report) OverheadMultiple() float64 {
	if r.UninstrumentedTime <= 0 {
		return 0
	}
	return float64(r.CollectionCost()) / float64(r.UninstrumentedTime)
}

// EstimatedBenefitPercent expresses a benefit duration against the
// uninstrumented execution time.
func (r *Report) EstimatedBenefitPercent(d simtime.Duration) float64 {
	if r.UninstrumentedTime <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(r.UninstrumentedTime)
}

// SelfOverhead renders the report's §5.3 accounting as the observability
// layer's per-application overhead record: each collection stage's raw cost
// and probe charge against the uninstrumented reference.
func (r *Report) SelfOverhead() *obs.SelfOverhead {
	return &obs.SelfOverhead{
		App:       r.App,
		Reference: r.UninstrumentedTime,
		Stages: []obs.StageCost{
			{Name: "stage1-baseline", Raw: r.Stage1Time, Probe: r.Stage1Overhead},
			{Name: "stage2-detailed-tracing", Raw: r.Stage2Time, Probe: r.Stage2Overhead},
			{Name: "stage3-memory-tracing", Raw: r.Stage3Time, Probe: r.Stage3Overhead},
			{Name: "stage4-sync-use", Raw: r.Stage4Time, Probe: r.Stage4Overhead},
		},
	}
}

// Run executes the full five-stage FFM pipeline on the application: an
// uninstrumented reference run, stage 1 (discovery + baseline), stage 2
// (detailed tracing), stage 3 (memory tracing and data hashing), stage 4
// (sync-use analysis) and stage 5 (analysis). No user interaction happens
// between stages (§3: "the execution of these stages is designed to be
// automated").
//
// Deviation from the prototype: Diogenes runs stages 1–3 separately for
// synchronization and transfer problems and merges in stage 5 (§4); here a
// single combined collection per stage gathers both, which preserves every
// analysis input while halving the number of runs. The overhead model
// accounts for the combined probes.
func Run(app proc.App, cfg Config) (*Report, error) {
	o := cfg.Obs
	mets := o.Metrics()
	parent := cfg.Parent
	if parent == nil {
		parent = o.Root()
	}
	runSpan := parent.Child(0, "app", app.Name())
	defer runSpan.End()

	rep := &Report{App: app.Name()}

	// Reference run: completely uninstrumented. Its device-op log is the
	// only one a report keeps, and no run but stage 3 reads memory
	// contents. A SkewApp's reference run also yields its world's skew.
	reference := func(context.Context) error {
		sp := runSpan.Child(0, "stage", "reference")
		defer sp.End()
		p := cfg.Factory.NewMode(proc.OpLog)
		p.Ctx.SetMetrics(mets)
		run := app
		if sa, ok := app.(SkewApp); ok {
			run = skewRun{sa, &rep.skew}
		}
		if err := proc.SafeRun(run, p); err != nil {
			return fmt.Errorf("ffm: uninstrumented run of %s: %w", app.Name(), err)
		}
		rep.UninstrumentedTime = p.ExecTime()
		rep.DeviceOps = p.Dev.Ops()
		sp.SetVirtual(rep.UninstrumentedTime)
		sp.SetArg("device_ops", len(rep.DeviceOps))
		addDeviceRows(sp, rep.DeviceOps)
		return nil
	}
	// Stage 1: discovery + baseline. Independent of the reference run (both
	// start fresh processes), so the two overlap when Workers allows.
	var base *BaselineResult
	baseline := func(context.Context) error {
		sp := runSpan.Child(1, "stage", "stage1-baseline")
		defer sp.End()
		var err error
		base, err = runBaseline(app, cfg.Factory, cfg.Overheads, mets)
		if err != nil {
			return err
		}
		sp.SetVirtual(base.ExecTime)
		sp.SetArg("sync_events", base.SyncEvents)
		sp.SetArg("probe_ns", int64(base.ProbeOverhead))
		return nil
	}
	if err := sched.GoMetrics(context.Background(), cfg.stageWidth(), mets, reference, baseline); err != nil {
		return nil, err
	}
	rep.Baseline = base
	rep.Stage1Time = base.ExecTime
	rep.Stage1Overhead = base.ProbeOverhead

	stage2, stage4, err := runCollection(app, cfg, base, runSpan, mets)
	if err != nil {
		return nil, err
	}
	rep.Stage2Time = stage2.RawExecTime
	rep.Stage2Overhead = stage2.RawExecTime - stage2.ExecTime
	rep.Stage3Time = stage4.stage3Raw
	rep.Stage3Overhead = stage4.stage3Probe
	rep.Stage4Time = stage4.execTime
	rep.Stage4Overhead = stage4.probe

	// Use the lightweight stage-2 timings for the benefit model, keeping
	// the stage-3/4 problem annotations.
	MatchStage2Timing(stage4.run, stage2)
	rep.Trace = stage4.run

	s5 := runSpan.Child(5, "stage", "stage5-analysis")
	rep.Analysis = Analyze(stage4.run, cfg.Analysis)
	s5.SetArg("records", len(stage4.run.Records))
	s5.SetArg("groups", len(rep.Analysis.Overview))
	s5.End()

	o.AddSelfOverhead(rep.SelfOverhead())
	return rep, nil
}

// addDeviceRows attaches the reference run's device timeline to the stage
// span: one child per GPU stream, pinned at the stream's first operation so
// the Chrome export shows device activity on its own rows (tid 100+stream)
// under the CPU pipeline. Layout depends only on virtual timestamps, so it
// is deterministic across worker counts.
func addDeviceRows(sp *obs.Span, ops []*gpu.Op) {
	type extent struct {
		lo, hi simtime.Time
		n      int
	}
	streams := make(map[gpu.StreamID]*extent)
	for _, op := range ops {
		if op.End == simtime.Infinity {
			continue
		}
		e := streams[op.Stream]
		if e == nil {
			e = &extent{lo: op.Start, hi: op.End}
			streams[op.Stream] = e
		}
		if op.Start < e.lo {
			e.lo = op.Start
		}
		if op.End > e.hi {
			e.hi = op.End
		}
		e.n++
	}
	for id, e := range streams {
		c := sp.Child(int(id), "gpu", fmt.Sprintf("stream %d", id))
		c.SetRow(100 + int(id))
		c.SetOffset(simtime.Duration(e.lo))
		c.SetVirtual(e.hi.Sub(e.lo))
		c.SetArg("ops", e.n)
	}
}

// addCallBatches attaches a collection stage's driver-call records to its
// span as fixed-size batches pinned at their (overhead-compensated) entry
// timestamps — enough structure to see call phases in the Perfetto UI
// without one event per call.
func addCallBatches(sp *obs.Span, recs []trace.Record) {
	if sp == nil {
		return
	}
	const batchSize = 64
	for i := 0; i < len(recs); i += batchSize {
		j := i + batchSize
		if j > len(recs) {
			j = len(recs)
		}
		b := sp.Child(i/batchSize, "calls", fmt.Sprintf("calls[%d:%d]", i, j))
		b.SetOffset(simtime.Duration(recs[i].Entry))
		b.SetVirtual(recs[j-1].Exit.Sub(recs[i].Entry))
		b.SetArg("records", j-i)
	}
}

// stage4Result bundles the stage-3→4 chain's outputs: the annotated run,
// the stage-4 virtual execution time and probe charge, and stage 3's raw
// run time and probe charge for the §5.3 overhead accounting.
type stage4Result struct {
	run         *trace.Run
	execTime    simtime.Duration
	probe       simtime.Duration
	stage3Raw   simtime.Duration
	stage3Probe simtime.Duration
}

// runCollection executes the post-baseline collection stages. Stage 2
// depends only on the baseline, and stage 4 depends only on stage 3, so
// the two chains — stage 2, and stage 3 followed by stage 4 — are two
// tasks on one sched pool of cfg.stageWidth() workers. Each stage executes
// the application in a fresh process, so stage outputs never depend on
// which chain ran first.
func runCollection(app proc.App, cfg Config, base *BaselineResult, runSpan *obs.Span, mets *obs.Registry) (*trace.Run, *stage4Result, error) {
	var (
		stage2 *trace.Run
		s4     *stage4Result
	)
	runStage2 := func(context.Context) error {
		sp := runSpan.Child(2, "stage", "stage2-detailed-tracing")
		defer sp.End()
		run, err := runDetailedTracing(app, cfg.Factory, base, cfg.Overheads, mets)
		if err != nil {
			return err
		}
		sp.SetVirtual(run.RawExecTime)
		sp.SetArg("records", len(run.Records))
		sp.SetArg("probe_ns", int64(run.RawExecTime-run.ExecTime))
		addCallBatches(sp, run.Records)
		stage2 = run
		return nil
	}
	stage34 := func(context.Context) error {
		sp3 := runSpan.Child(3, "stage", "stage3-memory-tracing")
		stage3, err := runMemoryTracing(app, cfg.Factory, base, cfg.Overheads, mets)
		if err != nil {
			sp3.End()
			return err
		}
		sp3.SetVirtual(stage3.RawExecTime)
		sp3.SetArg("records", len(stage3.Records))
		sp3.SetArg("probe_ns", int64(stage3.RawExecTime-stage3.ExecTime))
		addCallBatches(sp3, stage3.Records)
		sp3.End()

		sp4 := runSpan.Child(4, "stage", "stage4-sync-use")
		defer sp4.End()
		run, execTime, probe, err := runSyncUse(app, cfg.Factory, base, stage3, cfg.Overheads, mets)
		if err != nil {
			return err
		}
		sp4.SetVirtual(execTime)
		sp4.SetArg("records", len(run.Records))
		sp4.SetArg("probe_ns", int64(probe))
		s4 = &stage4Result{
			run:         run,
			execTime:    execTime,
			probe:       probe,
			stage3Raw:   stage3.RawExecTime,
			stage3Probe: stage3.RawExecTime - stage3.ExecTime,
		}
		return nil
	}
	if err := sched.GoMetrics(context.Background(), cfg.stageWidth(), mets, runStage2, stage34); err != nil {
		return nil, nil, err
	}
	return stage2, s4, nil
}
