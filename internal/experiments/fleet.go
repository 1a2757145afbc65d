package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/mpi"
	"diogenes/internal/proc"
	"diogenes/internal/sched"
)

// defaultFleetBackoff is the pause before a failed rank's single retry when
// the engine does not set one.
const defaultFleetBackoff = 50 * time.Millisecond

// FleetRankID names one rank's pipeline for content addressing. It matches
// the mpi adapter's app name, so the key changes with both the observed
// rank and the world size.
func FleetRankID(app string, rank, ranks int) string {
	return fmt.Sprintf("%s@rank%d/%d", app, rank, ranks)
}

// Fleet runs the full FFM pipeline on every rank of the named application's
// MPI world and aggregates the per-rank findings into one fleet report:
// cross-rank duplicate transfers, per-problem benefit spread, and
// collective-skew attribution from the whole world that the lowest-ranked
// completed pipeline's reference run simulated.
//
// Aggregation streams: each rank's outcome folds into its batch's partial
// the moment the rank finishes, releasing the rank's full report
// immediately, and the batch partials are assembled in rank order once
// every batch is done — peak memory is O(aggregate state), not
// O(ranks × report), and the assembled document is byte-identical at
// every worker count.
//
// Fault containment: a rank whose pipeline fails (error or panic) is
// retried once after a short backoff; if the retry also fails the rank is
// recorded in the report's FailedRanks and the launch still succeeds with a
// partial report. When no rank pipeline completes, the report carries no
// skew attribution. Fleet only returns an error when the request itself is
// invalid (unknown or single-process application, bad rank count).
//
// ranks 0 selects the application's default world size. Per-rank pipelines
// are memoized through the engine's cache like every other engine run, and
// the skew attribution rides on the cached rank reports: a repeated launch
// on one engine simulates nothing.
func (e *Engine) Fleet(name string, scale float64, ranks int) (*ffm.FleetReport, error) {
	return e.FleetCtx(context.Background(), name, scale, ranks)
}

// FleetCtx is Fleet under a caller-supplied context: cancellation stops
// scheduling new rank pipelines and interrupts retry backoffs, so a
// draining serve job releases its pool workers promptly. A canceled fleet
// returns an error rather than a silently truncated report.
func (e *Engine) FleetCtx(ctx context.Context, name string, scale float64, ranks int) (*ffm.FleetReport, error) {
	spec, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	if spec.MPI == nil {
		return nil, fmt.Errorf("experiments: %s is single-process; fleet analysis needs an MPI-modelled application", name)
	}
	if ranks == 0 {
		ranks = spec.MPI.DefaultRanks
	}
	mcfg := mpi.Config{
		Ranks:          ranks,
		BarrierLatency: spec.MPI.BarrierLatency,
		Factory:        spec.Factory(),
	}
	// One configuration encoding keys every rank of the launch.
	var keyFor func(int) string
	if fp, ok := fingerprint(e.config(mcfg.Factory)); ok {
		keyFor = func(r int) string { return fp.key(FleetRankID(name, r, ranks), scale, apps.Original) }
	}
	newProg := func(int) mpi.RankProgram { return spec.MPI.Program(scale, apps.Original) }
	return e.fleet(ctx, name, newProg, mcfg, keyFor)
}

// FleetOver runs fleet analysis over an explicit rank program and launch
// configuration, bypassing the registry and the report cache. newProg is
// called with the rank whose pipeline the program instance will serve, so
// tests can inject faults into one rank's tool instance. It applies the
// same containment policy as Fleet.
func (e *Engine) FleetOver(app string, newProg func(observed int) mpi.RankProgram, mcfg mpi.Config) (*ffm.FleetReport, error) {
	return e.fleet(context.Background(), app, newProg, mcfg, nil)
}

// FleetReduce runs the streaming fleet reduction over caller-supplied
// rank outcomes instead of live pipelines: outcome is invoked once per
// rank (concurrently, in rank batches on the engine's pool) and its
// result folds into its batch's partial immediately. It is the entry
// point for driving the reduction at widths where executing real
// pipelines is beside the point — the scale benchmarks prove flat
// allocated-bytes-per-rank with it — and for replaying recorded
// outcomes. The skew attribution comes from the outcomes' reports, like
// a live launch's.
func (e *Engine) FleetReduce(app string, ranks int, outcome func(rank int) ffm.RankOutcome) (*ffm.FleetReport, error) {
	return e.fleetReduce(context.Background(), app, ranks,
		func(_ context.Context, r int) ffm.RankOutcome { return outcome(r) })
}

// fleet runs a live launch: one pipeline per rank and nothing else.
// keyFor, nil for an uncachable launch, keys each rank's report in the
// engine's cache.
func (e *Engine) fleet(ctx context.Context, app string, newProg func(int) mpi.RankProgram, mcfg mpi.Config, keyFor func(int) string) (*ffm.FleetReport, error) {
	return e.fleetReduce(ctx, app, mcfg.Ranks,
		func(ctx context.Context, r int) ffm.RankOutcome {
			return e.fleetRank(ctx, app, r, newProg, mcfg, keyFor)
		})
}

// fleetReduce is the one fleet reduction path: contiguous rank batches
// run as pool tasks, each folding its ranks with ffm.FoldRankOutcome as
// they finish and merging them into its own slot of parts; after the
// pool drains, ffm.AssembleFleet absorbs the slots in rank order. At most
// one partial per batch is ever resident.
func (e *Engine) fleetReduce(ctx context.Context, app string, ranks int, outcome func(ctx context.Context, rank int) ffm.RankOutcome) (*ffm.FleetReport, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("experiments: fleet over %d ranks, need at least 1", ranks)
	}
	pool, err := e.pool()
	if err != nil {
		return nil, err
	}
	c := &fleetCounters{ranks: ranks}
	e.fleetRun.Store(c)
	batch := fleetBatchSize(ranks, pool.Workers())
	parts := make([]*ffm.FleetPartial, (ranks+batch-1)/batch)
	tasks := make([]sched.Task, len(parts))
	for i := range parts {
		lo, hi := i*batch, min((i+1)*batch, ranks)
		tasks[i] = sched.Task{
			Name: fmt.Sprintf("fleet/%s/ranks%d-%d", app, lo, hi),
			Fn: func(ctx context.Context) error {
				// Containment: a failed rank degrades the report; it must
				// never fail — or first-error-cancel — the launch. Only a
				// broken adjacency errors.
				for r := lo; r < hi; r++ {
					leaf := ffm.FoldRankOutcome(outcome(ctx, r))
					c.ranksDone.Add(1)
					part, err := ffm.Merge(parts[i], leaf)
					if err != nil {
						return err
					}
					parts[i] = part
				}
				return nil
			},
		}
	}
	if _, err := pool.Run(ctx, tasks...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiments: fleet canceled: %w", err)
	}
	return ffm.AssembleFleet(app, ranks, parts, func() { c.merges.Add(1) })
}

// fleetBatchSize is how many contiguous ranks one reduction task folds
// on a pool of the given width (at least 1): at least four batches per
// worker in flight so small worlds still parallelize, while large worlds
// amortize task and assembly overhead.
func fleetBatchSize(ranks, workers int) int {
	return max(1, ranks/(workers*4))
}

// fleetCounters is the live progress of one fleet reduction.
type fleetCounters struct {
	ranks             int
	ranksDone, merges atomic.Int64
}

// FleetProgress reports the counters of the engine's current (or most
// recent) fleet reduction: ranks folded so far and batch partials
// absorbed at assembly. ok is false before the first fleet run. The
// serving layer polls it to stream fleet job progress.
func (e *Engine) FleetProgress() (ffm.FleetProgress, bool) {
	c := e.fleetRun.Load()
	if c == nil {
		return ffm.FleetProgress{}, false
	}
	return ffm.FleetProgress{
		RanksDone:  int(c.ranksDone.Load()),
		RanksTotal: c.ranks,
		Merges:     int(c.merges.Load()),
	}, true
}

// fleetRank runs one rank's pipeline with containment: panics become
// errors, and a failed first attempt is retried once after FleetBackoff,
// bypassing the cache (which memoizes the failure). The backoff is
// context-aware: a canceled fleet skips the retry instead of holding a
// pool worker through the pause, and the outcome keeps the first
// attempt's error.
func (e *Engine) fleetRank(ctx context.Context, app string, rank int, newProg func(int) mpi.RankProgram, mcfg mpi.Config, keyFor func(int) string) ffm.RankOutcome {
	out := ffm.RankOutcome{Rank: rank}
	span := e.Obs.Root().Child(rank, "rank", FleetRankID(app, rank, mcfg.Ranks))
	defer span.End()
	cfg := e.config(mcfg.Factory)
	cfg.Parent = span
	run := func() (*ffm.Report, error) {
		prog := newProg(rank)
		return containedRun(rankApp{mpi.App(prog, mcfg, rank), prog, mcfg, rank}, cfg)
	}
	attempt := run
	if e.Cache != nil && keyFor != nil {
		key := keyFor(rank)
		attempt = func() (*ffm.Report, error) {
			// The cache reports the hit per call — concurrent ranks
			// cannot misattribute each other's hits the way a global
			// Stats() delta could.
			rep, hit, err := e.Cache.ReportHit(key, run)
			out.FromCache = err == nil && hit
			return rep, err
		}
	}
	rep, err := attempt()
	out.Attempts = 1
	if err != nil {
		out.FromCache = false
		if !sleepCtx(ctx, e.fleetBackoff()) {
			out.Err = err.Error()
			span.SetArg("failed", out.Err)
			return out
		}
		out.Retried = true
		out.Attempts = 2
		rep, err = run()
	}
	if err != nil {
		out.Err = err.Error()
		span.SetArg("failed", out.Err)
		return out
	}
	out.Report = rep
	return out
}

// sleepCtx pauses for d, returning false if ctx is canceled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		ctx = context.Background()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// containedRun executes one rank pipeline, converting panics into errors.
// proc.SafeRun only recovers simulated-deadlock panics; a fleet launch must
// survive any rank fault. A stage panic arrives as the stage pool's
// *sched.PanicError and is reported exactly like one recovered here, so
// the failed rank's error text does not depend on the engine's width.
func containedRun(app proc.App, cfg ffm.Config) (rep *ffm.Report, err error) {
	rankPanic := func(v any) error {
		return fmt.Errorf("experiments: fleet rank pipeline %s panicked: %v", app.Name(), v)
	}
	defer func() {
		if v := recover(); v != nil {
			rep, err = nil, rankPanic(v)
		}
	}()
	rep, err = ffm.Run(app, cfg)
	if pe := (*sched.PanicError)(nil); errors.As(err, &pe) {
		return nil, rankPanic(pe.Value)
	}
	return rep, err
}

// fleetBackoff resolves the retry pause.
func (e *Engine) fleetBackoff() time.Duration {
	if e.FleetBackoff > 0 {
		return e.FleetBackoff
	}
	return defaultFleetBackoff
}

// rankApp is one rank's pipeline target: the mpi adapter observing the
// rank, whose reference run (ffm.SkewApp) also returns the world's
// collective-skew attribution.
type rankApp struct {
	proc.App
	prog mpi.RankProgram
	mcfg mpi.Config
	rank int
}

// RunSkew runs the world with the rank living in p and converts its
// barrier ledger.
func (a rankApp) RunSkew(p *proc.Process) (*ffm.FleetSkew, error) {
	w, err := mpi.NewWorld(a.prog, a.mcfg, a.rank, p)
	if err != nil {
		return nil, err
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	return convertSkew(w.Skew(), w.Ledger()), nil
}

// convertSkew maps the mpi barrier ledger onto the ffm report form and
// picks the dominant straggler (most charged wait; ties go to the lowest
// rank). The per-barrier records ride along so the attribution can be
// rendered collective by collective (the timeline's skew ribbons).
func convertSkew(perRank []mpi.RankSkew, barriers []mpi.BarrierRecord) *ffm.FleetSkew {
	out := &ffm.FleetSkew{Straggler: -1, PerRank: make([]ffm.FleetSkewRank, len(perRank))}
	for i, rs := range perRank {
		out.PerRank[i] = ffm.FleetSkewRank{
			Rank: rs.Rank, Waited: rs.Waited, Charged: rs.Charged, Straggles: rs.Straggles,
		}
		out.TotalWait += rs.Waited
		if rs.Charged > 0 && (out.Straggler < 0 || rs.Charged > out.PerRank[out.Straggler].Charged) {
			out.Straggler = rs.Rank
		}
	}
	for _, b := range barriers {
		out.Barriers = append(out.Barriers, ffm.FleetBarrier{
			Index:     b.Index,
			Arrive:    b.Arrive,
			Latency:   b.Latency,
			Straggler: b.Straggler,
			Wait:      b.TotalWait,
			RankWaits: b.RankWaits,
		})
	}
	return out
}

// FleetSuiteKey returns the content-addressed key covering one fleet
// request: the kind plus every rank's run key, so fleet documents live in
// the same persistent store as the suite kinds. ranks 0 selects the
// application default. The second result is false when the application is
// unknown, not MPI-modelled, or cannot be fingerprinted.
func (e *Engine) FleetSuiteKey(name string, scale float64, ranks int) (string, bool) {
	spec, err := apps.ByName(name)
	if err != nil || spec.MPI == nil {
		return "", false
	}
	if ranks == 0 {
		ranks = spec.MPI.DefaultRanks
	}
	if ranks < 1 {
		return "", false
	}
	fp, ok := fingerprint(e.config(spec.Factory()))
	if !ok {
		return "", false
	}
	h := sha256.New()
	writeLenPrefixed(h, []byte("fleet"))
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], uint64(ranks))
	h.Write(rb[:])
	for r := 0; r < ranks; r++ {
		writeLenPrefixed(h, []byte(fp.key(FleetRankID(name, r, ranks), scale, apps.Original)))
	}
	return hex.EncodeToString(h.Sum(nil)), true
}
