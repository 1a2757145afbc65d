// Package mpi simulates a deterministic multi-rank (MPI-style) launch.
//
// AMG, one of the paper's four applications, is "an MPI based parallel
// algebraic multigrid solver", and the Ray testbed is a cluster; tools like
// Diogenes instrument each rank's process independently (the prototype is
// launched like hpcprof/nvprof, per process). This package models the
// bulk-synchronous structure such solvers have: every rank executes the
// same supersteps against its own simulated process, and a collective
// (barrier/allreduce) at each superstep boundary advances all ranks to the
// latest rank's time plus the collective's latency.
//
// The adapter returned by App lets FFM instrument one observed rank while
// the other ranks run alongside in background processes: collective skew
// shows up on the observed rank as gaps before its next driver call,
// exactly as MPI wait time would.
package mpi

import (
	"fmt"

	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// RankState is per-rank application state created by Setup.
type RankState any

// RankProgram is a bulk-synchronous multi-rank application.
type RankProgram interface {
	Name() string
	// Steps is the number of supersteps (collective-delimited phases).
	Steps() int
	// Setup allocates the rank's state against its process.
	Setup(p *proc.Process, rank int) (RankState, error)
	// Step executes one superstep on one rank. Calls must be deterministic
	// per (rank, step).
	Step(p *proc.Process, rank int, st RankState, step int) error
}

// NoObserved selects no observed rank: every rank's process is built from
// the factory. Standalone whole-world runs (tests) use this; FFM
// instrumentation always names a concrete observed rank.
const NoObserved = -1

// Config describes the launch.
type Config struct {
	// Ranks is the world size.
	Ranks int
	// BarrierLatency is the collective's cost once all ranks arrive.
	BarrierLatency simtime.Duration
	// Factory builds each rank's process.
	Factory proc.Factory
}

// DefaultConfig returns a 4-rank world (one rank per GPU of a Ray node).
func DefaultConfig() Config {
	return Config{
		Ranks:          4,
		BarrierLatency: 25 * simtime.Microsecond,
		Factory:        proc.DefaultFactory(),
	}
}

// RankSkew is one rank's collective-skew account over a world run.
type RankSkew struct {
	Rank int `json:"rank"`
	// Waited is the time this rank spent blocked at barriers waiting for
	// slower ranks (excluding BarrierLatency, the unavoidable collective
	// cost every rank pays).
	Waited simtime.Duration `json:"waited"`
	// Charged is the wait time this rank inflicted on the others while it
	// was the straggler — the sum, over barriers where it arrived last, of
	// every other rank's wait.
	Charged simtime.Duration `json:"charged"`
	// Straggles counts barriers where this rank arrived last and at least
	// one other rank actually waited.
	Straggles int `json:"straggles"`
}

// BarrierRecord is the per-barrier entry of the skew ledger: one skewed
// collective, its straggler, and every rank's wait. Balanced barriers
// (total wait zero) are not recorded — in a perfectly balanced world the
// ledger stays empty no matter how many collectives execute.
type BarrierRecord struct {
	// Index is the barrier's ordinal among all executed collectives
	// (including unrecorded balanced ones).
	Index int
	// Arrive is the straggler's arrival time — the moment the last rank
	// reached the barrier and everyone's wait ended.
	Arrive simtime.Time
	// Latency is the collective's own cost, paid after Arrive.
	Latency simtime.Duration
	// Straggler is the last-arriving rank (ties toward the lowest rank).
	Straggler int
	// TotalWait is the sum of every rank's wait at this barrier.
	TotalWait simtime.Duration
	// RankWaits is each rank's wait, indexed by rank.
	RankWaits []simtime.Duration
}

// World is one running multi-rank launch.
type World struct {
	cfg    Config
	procs  []*proc.Process
	states []RankState
	prog   RankProgram
	skew   []RankSkew
	ledger []BarrierRecord
	// barriers counts executed collectives.
	barriers int
}

// NewWorld sets up all ranks. The caller may supply a pre-built process for
// one observed rank (used by the FFM adapter — "the observed rank lives in
// the app's process").
//
// The nil-observedProc case: without a caller-supplied process no rank can
// live in the app's process, so the observed-rank contract cannot hold.
// NoObserved (or, for historical callers, any in-range rank — normalized to
// NoObserved) is accepted and every rank is built from the factory;
// anything else is an error rather than a silently factory-built "observed"
// rank.
func NewWorld(prog RankProgram, cfg Config, observed int, observedProc *proc.Process) (*World, error) {
	// Validate the world size before the procs/states slices are
	// allocated: a negative Ranks must fail here, not panic in make.
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("mpi: world size %d, need at least 1 rank", cfg.Ranks)
	}
	if observedProc == nil {
		if observed != NoObserved && (observed < 0 || observed >= cfg.Ranks) {
			return nil, fmt.Errorf("mpi: observed rank %d of %d without its process (pass mpi.NoObserved to observe none)", observed, cfg.Ranks)
		}
		observed = NoObserved
	} else if observed < 0 || observed >= cfg.Ranks {
		return nil, fmt.Errorf("mpi: observed rank %d of %d", observed, cfg.Ranks)
	}
	w := &World{cfg: cfg, prog: prog}
	w.procs = make([]*proc.Process, cfg.Ranks)
	w.states = make([]RankState, cfg.Ranks)
	w.skew = make([]RankSkew, cfg.Ranks)
	for r := range w.skew {
		w.skew[r].Rank = r
	}
	for r := 0; r < cfg.Ranks; r++ {
		if r == observed {
			w.procs[r] = observedProc
		} else {
			// Background ranks run timing-only whatever the observed
			// rank keeps: ranks exchange only barriers, never data, so
			// nothing reads their bytes or device-op logs.
			w.procs[r] = cfg.Factory.New()
		}
		st, err := prog.Setup(w.procs[r], r)
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d setup: %w", r, err)
		}
		w.states[r] = st
	}
	return w, nil
}

// Rank returns rank r's process.
func (w *World) Rank(r int) *proc.Process { return w.procs[r] }

// Barriers returns the number of collectives executed.
func (w *World) Barriers() int { return w.barriers }

// Skew returns a copy of the per-rank collective-skew accounts accumulated
// so far: how long each rank waited at barriers, and how much wait each
// rank inflicted on the others while it was the straggler.
func (w *World) Skew() []RankSkew {
	out := make([]RankSkew, len(w.skew))
	copy(out, w.skew)
	return out
}

// Barrier advances every rank to the latest rank's time plus the collective
// latency — the lockstep synchronization of a bulk-synchronous solver.
//
// The skew ledger charges this barrier's total wait to the straggler — the
// last-arriving rank (ties broken toward the lowest rank, keeping the
// ledger deterministic). BarrierLatency is excluded: every rank pays it
// even in a perfectly balanced world. Skewed barriers additionally append
// a BarrierRecord so the attribution can be replayed collective by
// collective (Ledger).
func (w *World) Barrier() {
	var latest simtime.Time
	straggler := 0
	for r, p := range w.procs {
		if now := p.Clock.Now(); now > latest {
			latest = now
			straggler = r
		}
	}
	target := latest.Add(w.cfg.BarrierLatency)
	var total simtime.Duration
	waits := make([]simtime.Duration, len(w.procs))
	for r, p := range w.procs {
		wait := latest.Sub(p.Clock.Now())
		w.skew[r].Waited += wait
		waits[r] = wait
		total += wait
		p.Clock.AdvanceTo(target)
	}
	if total > 0 {
		w.skew[straggler].Charged += total
		w.skew[straggler].Straggles++
		w.ledger = append(w.ledger, BarrierRecord{
			Index:     w.barriers,
			Arrive:    latest,
			Latency:   w.cfg.BarrierLatency,
			Straggler: straggler,
			TotalWait: total,
			RankWaits: waits,
		})
	}
	w.barriers++
}

// Ledger returns the per-barrier skew records accumulated so far: one entry
// per skewed collective, in execution order. Balanced barriers leave no
// record.
func (w *World) Ledger() []BarrierRecord {
	out := make([]BarrierRecord, len(w.ledger))
	copy(out, w.ledger)
	return out
}

// Run executes all supersteps with a collective after each.
func (w *World) Run() error {
	for step := 0; step < w.prog.Steps(); step++ {
		for r := 0; r < w.cfg.Ranks; r++ {
			if err := proc.SafeRun(rankStepApp{w, r, step}, w.procs[r]); err != nil {
				return fmt.Errorf("mpi: rank %d step %d: %w", r, step, err)
			}
		}
		w.Barrier()
	}
	return nil
}

// rankStepApp adapts one (rank, step) execution to proc.App so SafeRun's
// deadlock recovery applies per step.
type rankStepApp struct {
	w    *World
	rank int
	step int
}

func (a rankStepApp) Name() string {
	return fmt.Sprintf("%s[rank %d, step %d]", a.w.prog.Name(), a.rank, a.step)
}

func (a rankStepApp) Run(p *proc.Process) error {
	return a.w.prog.Step(p, a.rank, a.w.states[a.rank], a.step)
}

// App adapts a multi-rank program to a single-process proc.App from the
// point of view of rank `observed`: running the returned app simulates the
// whole world, with the observed rank living in the app's process. This is
// what FFM instruments — one process of the MPI job, like the real tool.
func App(prog RankProgram, cfg Config, observed int) proc.App {
	return &worldApp{prog: prog, cfg: cfg, observed: observed}
}

type worldApp struct {
	prog     RankProgram
	cfg      Config
	observed int
}

func (a *worldApp) Name() string {
	return fmt.Sprintf("%s@rank%d/%d", a.prog.Name(), a.observed, a.cfg.Ranks)
}

func (a *worldApp) Run(p *proc.Process) error {
	w, err := NewWorld(a.prog, a.cfg, a.observed, p)
	if err != nil {
		return err
	}
	return w.Run()
}
