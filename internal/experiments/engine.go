package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/obs"
	"diogenes/internal/proc"
	"diogenes/internal/sched"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// Engine is the one way to run a pipeline: it executes single runs and the
// evaluation suites on the sched worker pool, with an optional
// content-addressed report cache shared across suites. Results are
// byte-identical at every width: each pipeline and each pipeline stage
// runs the application in its own fresh process on its own virtual clock,
// and result slices keep registry order regardless of completion order.
type Engine struct {
	// Workers bounds how many independent experiment apps run at once,
	// and is the only parallelism setting: every width other than 1 also
	// overlaps the stages inside each pipeline (stageWidth). 0 selects
	// GOMAXPROCS; 1 is serial.
	Workers int
	// Cache, when non-nil, memoizes pipeline reports and uninstrumented
	// runtimes across Table1/Table2/autofix calls and fleet launches.
	Cache *ReportCache
	// Obs, when non-nil, receives self-measurement from every layer the
	// engine drives: pipeline spans and overhead reports (via
	// ffm.Config.Obs), scheduler telemetry (via pool metrics), and cache
	// hit/miss counters. Cached pipeline results record no spans — a hit
	// means no run happened, and the trace says so honestly.
	Obs *obs.Observer
	// FleetBackoff is the pause before a failed fleet rank's single retry.
	// 0 selects a 50ms default; tests set it to a nanosecond. Backoff is
	// wall time, not virtual time — it paces the retry, never the model.
	FleetBackoff time.Duration

	// fleetRun publishes the current fleet reduction's counters so
	// FleetProgress can stream them while ranks are running.
	fleetRun atomic.Pointer[fleetCounters]
}

// SetObserver attaches an observer to the engine (nil detaches), wiring it
// through the pipeline configuration, the worker pools and the cache.
func (e *Engine) SetObserver(o *obs.Observer) {
	e.Obs = o
	e.Cache.SetMetrics(o.Metrics())
}

// NewEngine returns an engine of the given width with a fresh cache.
func NewEngine(workers int) *Engine {
	return &Engine{Workers: workers, Cache: NewReportCache()}
}

// stageWidth is how many stage chains of one pipeline run at once, and how
// many benefit measurements overlap: 2, unless the engine is serial. Width 1
// runs them in submission order on the same sched path.
func (e *Engine) stageWidth() int {
	if e.Workers == 0 || e.Workers > 1 {
		return 2
	}
	return 1
}

// pool builds the engine's worker pool.
func (e *Engine) pool() (*sched.Pool, error) {
	p, err := sched.New(e.Workers)
	if err != nil {
		return nil, err
	}
	p.SetMetrics(e.Obs.Metrics())
	return p, nil
}

// config assembles the ffm configuration of every pipeline the engine
// runs, on the machine the factory models.
func (e *Engine) config(f proc.Factory) ffm.Config {
	cfg := ffm.DefaultConfig()
	cfg.Factory = f
	cfg.Workers = e.stageWidth()
	cfg.Obs = e.Obs
	return cfg
}

// RunApp executes the full FFM pipeline on one modelled application at the
// given scale, consulting the engine's cache first. The returned report is
// shared when cached — callers must not mutate it.
func (e *Engine) RunApp(name string, scale float64) (*ffm.Report, error) {
	spec, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg := e.config(spec.Factory())
	run := func() (*ffm.Report, error) {
		return ffm.Run(spec.New(scale, apps.Original), cfg)
	}
	if e.Cache != nil {
		if key, ok := CacheKey(name, scale, apps.Original, cfg); ok {
			return e.Cache.Report(key, run)
		}
	}
	return run()
}

// Replay re-drives the full FFM pipeline from a captured trace: the trace
// becomes an executable application whose analysis reproduces the
// original's byte for byte. Replays are request-shaped and never cached.
func (e *Engine) Replay(run *trace.Run) (*ffm.Report, error) {
	// Byte-identical reproduction needs the machine configuration the
	// trace was captured on; registered applications carry theirs.
	f, ok := apps.FactoryFor(run.App)
	if !ok {
		f = proc.DefaultFactory()
	}
	return ffm.Run(&apps.ReplayApp{Trace: run}, e.config(f))
}

// RunFamily runs the full FFM pipeline on one member of a generative
// application family on the default machine. Like replays, family runs
// are request-shaped and never cached.
func (e *Engine) RunFamily(name string, seed uint64, steps int) (*ffm.Report, error) {
	fam, err := apps.FamilyByName(name)
	if err != nil {
		return nil, err
	}
	cfg := e.config(proc.DefaultFactory())
	return ffm.Run(fam.New(seed, steps, cfg.Factory), cfg)
}

// ActualReduction measures the real benefit of the paper's fix: the
// uninstrumented runtimes of the original and fixed builds, each memoized
// per variant. The original's uninstrumented run is its pipeline's
// reference run, so a pipeline report the engine's cache already holds
// supplies it (rep.UninstrumentedTime) instead of a second simulation. On
// a parallel engine the runs that remain execute concurrently — each in
// its own fresh process on its own virtual clock, so concurrency cannot
// change the measured durations.
func (e *Engine) ActualReduction(name string, scale float64) (orig, fixed simtime.Duration, err error) {
	spec, err := apps.ByName(name)
	if err != nil {
		return 0, 0, err
	}
	cfg := e.config(spec.Factory())
	var times [2]simtime.Duration
	measure := func(v apps.Variant) func(context.Context) error {
		return func(context.Context) (err error) {
			times[v], err = e.uninstrumented(spec, scale, v, cfg)
			return err
		}
	}
	tasks := []func(context.Context) error{measure(apps.Original), measure(apps.Fixed)}
	if key, ok := CacheKey(name, scale, apps.Original, cfg); ok && e.Cache != nil {
		if rep := e.Cache.completedReport(key); rep != nil {
			times[apps.Original] = rep.UninstrumentedTime
			tasks = tasks[1:]
		}
	}
	if err := sched.GoMetrics(context.Background(), e.stageWidth(), e.Obs.Metrics(), tasks...); err != nil {
		return 0, 0, err
	}
	return times[apps.Original], times[apps.Fixed], nil
}

// uninstrumented runs one build of the application with no probes, in a
// timing-only process, and returns its runtime, memoized in the engine's
// cache.
func (e *Engine) uninstrumented(spec apps.Spec, scale float64, v apps.Variant, cfg ffm.Config) (simtime.Duration, error) {
	measure := func() (simtime.Duration, error) {
		p := cfg.Factory.New()
		if err := proc.SafeRun(spec.New(scale, v), p); err != nil {
			return 0, fmt.Errorf("experiments: %s(%v): %w", spec.Name, v, err)
		}
		return p.ExecTime(), nil
	}
	if key, ok := CacheKey(spec.Name, scale, v, cfg); ok && e.Cache != nil {
		return e.Cache.Runtime(key, measure)
	}
	return measure()
}

// Table1For computes one application's Table 1 row through the engine. The
// row's original runtime is the pipeline's reference run; on a parallel
// engine the pipeline and the fixed build's uninstrumented run proceed
// concurrently, and the row is assembled from both once they finish. The
// addressed estimate is memoized with the cached report, so a warm engine
// re-derives nothing.
func (e *Engine) Table1For(name string, scale float64) (*Table1Row, error) {
	spec, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	var (
		rep   *ffm.Report
		fixed simtime.Duration
		cfg   = e.config(spec.Factory())
	)
	pipeline := func(context.Context) error {
		var err error
		rep, err = e.RunApp(name, scale)
		return err
	}
	reduction := func(context.Context) error {
		var err error
		fixed, err = e.uninstrumented(spec, scale, apps.Fixed, cfg)
		return err
	}
	if err := sched.GoMetrics(context.Background(), e.stageWidth(), e.Obs.Metrics(), pipeline, reduction); err != nil {
		return nil, err
	}
	var est simtime.Duration
	if key, ok := CacheKey(name, scale, apps.Original, cfg); ok && e.Cache != nil {
		est, err = e.Cache.addressedEstimate(key, name, rep)
	} else {
		est, err = AddressedEstimate(name, rep)
	}
	if err != nil {
		return nil, err
	}
	return table1Assemble(name, rep, est, rep.UninstrumentedTime, fixed), nil
}

// Table1 regenerates Table 1, one worker per application.
func (e *Engine) Table1(scale float64) ([]Table1Row, error) {
	registry := apps.Registry()
	rows := make([]*Table1Row, len(registry))
	pool, err := e.pool()
	if err != nil {
		return nil, err
	}
	tasks := make([]sched.Task, len(registry))
	for i, spec := range registry {
		i, spec := i, spec
		tasks[i] = sched.Task{Name: "table1/" + spec.Name, Fn: func(context.Context) error {
			row, err := e.Table1For(spec.Name, scale)
			if err != nil {
				return err
			}
			rows[i] = row
			return nil
		}}
	}
	if _, err := pool.Run(context.Background(), tasks...); err != nil {
		return nil, err
	}
	out := make([]Table1Row, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out, nil
}

// Table2 regenerates Table 2 sections for the named applications, one
// worker per application, preserving input order. Empty names selects
// every registered application.
func (e *Engine) Table2(scale float64, names []string) ([][]Table2Row, error) {
	if len(names) == 0 {
		for _, spec := range apps.Registry() {
			names = append(names, spec.Name)
		}
	}
	sections := make([][]Table2Row, len(names))
	pool, err := e.pool()
	if err != nil {
		return nil, err
	}
	tasks := make([]sched.Task, len(names))
	for i, name := range names {
		i, name := i, name
		tasks[i] = sched.Task{Name: "table2/" + name, Fn: func(context.Context) error {
			rows, err := e.Table2For(name, scale)
			if err != nil {
				return err
			}
			sections[i] = rows
			return nil
		}}
	}
	if _, err := pool.Run(context.Background(), tasks...); err != nil {
		return nil, err
	}
	return sections, nil
}

// AutofixTable measures, per application, how the automatic correction
// compares to the paper's manual fix — one worker per application.
func (e *Engine) AutofixTable(scale float64, apply func(name string, scale float64) (*AutofixRow, error)) ([]AutofixRow, error) {
	registry := apps.Registry()
	rows := make([]*AutofixRow, len(registry))
	pool, err := e.pool()
	if err != nil {
		return nil, err
	}
	tasks := make([]sched.Task, len(registry))
	for i, spec := range registry {
		i, spec := i, spec
		tasks[i] = sched.Task{Name: "autofix/" + spec.Name, Fn: func(context.Context) error {
			row, err := apply(spec.Name, scale)
			if err != nil {
				return err
			}
			orig, fixed, err := e.ActualReduction(spec.Name, scale)
			if err != nil {
				return err
			}
			row.ManualActual = orig - fixed
			if orig > 0 {
				row.ManualActualPct = 100 * float64(row.ManualActual) / float64(orig)
			}
			rows[i] = row
			return nil
		}}
	}
	if _, err := pool.Run(context.Background(), tasks...); err != nil {
		return nil, err
	}
	out := make([]AutofixRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out, nil
}
