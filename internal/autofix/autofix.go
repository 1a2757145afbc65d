// Package autofix implements the automatic correction the paper's
// conclusion proposes (§6): "The existence of a common underlying cause
// along with a common remedy ... signals that they may be automatically
// correctable." It turns an FFM analysis into a patch plan, applies the
// plan by eliding the problematic driver calls (the analog of binary
// patching the call sites), re-runs the application to measure the realized
// benefit, and guards correctness the way §5.1's manual fixes did — the
// const-qualifier/mprotect technique, here implemented by write-protecting
// the source pages of every removed transfer so any later mutation faults.
package autofix

import (
	"fmt"
	"sort"
	"strings"

	"diogenes/internal/callstack"
	"diogenes/internal/cuda"
	"diogenes/internal/ffm"
	"diogenes/internal/ffm/graph"
	"diogenes/internal/memory"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// ActionKind classifies a correction.
type ActionKind uint8

// Action kinds.
const (
	// RemoveSync elides a synchronization call whose protected data is
	// never read (safe to delete outright).
	RemoveSync ActionKind = iota
	// PoolFree elides a cudaFree, leaving the buffer for reuse — the
	// memory-manager remedy applied to cuIBM and cumf_als.
	PoolFree
	// DedupTransfer elides a duplicate transfer after its first
	// occurrence, write-protecting the source so the elision is provably
	// safe for this input.
	DedupTransfer
)

// String names the kind.
func (k ActionKind) String() string {
	switch k {
	case RemoveSync:
		return "remove synchronization"
	case PoolFree:
		return "pool allocation (elide cudaFree)"
	case DedupTransfer:
		return "deduplicate transfer"
	default:
		return fmt.Sprintf("ActionKind(%d)", uint8(k))
	}
}

// Action is one planned correction at one program point.
type Action struct {
	Kind      ActionKind
	Func      string
	PointKey  string // func + exact stack identity, as in the analysis
	Label     string // "cudaFree in als.cpp at line 856"
	Estimated simtime.Duration
	Count     int // dynamic occurrences at this point
	// Guard ranges: host source regions of deduplicated transfers,
	// write-protected during the patched run.
	GuardLo, GuardHi memory.Addr
}

// Plan is the set of corrections derived from one analysis.
type Plan struct {
	App       string
	Actions   []Action
	Estimated simtime.Duration // summed point estimates
	// Skipped lists problems the planner declined with reasons (misplaced
	// synchronizations need a *move*, which elision cannot express).
	Skipped []string
}

// Options tunes how a plan is applied.
type Options struct {
	// Guard enables the mprotect correctness guard on deduplicated
	// transfer sources (on by default via DefaultOptions).
	Guard bool
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Guard: true}
}

func pointKey(n *graph.Node) string { return n.Func + "|" + n.Stack.Key() }

// BuildPlan derives a patch plan from an analysis. Problems are grouped by
// single point (one patch per call site); each point's remedy follows from
// its problem class.
func BuildPlan(a *ffm.Analysis) *Plan {
	plan := &Plan{App: a.App}
	res := graph.ExpectedBenefit(a.Graph, a.Opts.Graph)

	type acc struct {
		action   Action
		problems map[graph.Problem]int
	}
	points := make(map[string]*acc)
	var order []string

	for _, nb := range res.PerNode {
		n := nb.Node
		key := pointKey(n)
		p, seen := points[key]
		if !seen {
			p = &acc{
				action:   Action{Func: n.Func, PointKey: key, Label: pointLabel(n)},
				problems: make(map[graph.Problem]int),
			}
			points[key] = p
			order = append(order, key)
		}
		p.problems[n.Problem]++
		p.action.Count++
		p.action.Estimated += nb.Benefit
	}

	for _, key := range order {
		p := points[key]
		// The remedy follows from the point's aggregate problem mix: a
		// single dynamic occurrence may be flagged differently (the first
		// upload of eventually-duplicated content is an unnecessary sync,
		// the rest are duplicates), but the patch is per call site.
		switch {
		case p.problems[graph.UnnecessaryTransfer] > 0:
			p.action.Kind = DedupTransfer
		case p.problems[graph.UnnecessarySync] == 0:
			plan.Skipped = append(plan.Skipped,
				fmt.Sprintf("%s: misplaced synchronization: needs a move, not an elision", p.action.Label))
			continue
		case p.action.Func == string(cuda.FuncFree):
			p.action.Kind = PoolFree
		default:
			p.action.Kind = RemoveSync
		}
		plan.Actions = append(plan.Actions, p.action)
		plan.Estimated += p.action.Estimated
	}
	sort.SliceStable(plan.Actions, func(i, j int) bool {
		return plan.Actions[i].Estimated > plan.Actions[j].Estimated
	})
	return plan
}

func pointLabel(n *graph.Node) string {
	leaf := n.Stack.Leaf()
	if leaf.File == "" {
		return n.Func
	}
	return fmt.Sprintf("%s in %s at line %d", n.Func, leaf.File, leaf.Line)
}

// Validation is the outcome of applying a plan and re-running.
type Validation struct {
	Plan *Plan

	OriginalTime simtime.Duration
	PatchedTime  simtime.Duration
	Realized     simtime.Duration
	RealizedPct  float64
	EstimatedPct float64

	SuppressedCalls int64
	GuardedRanges   int
	// GuardViolation is non-empty when the patched run mutated a
	// write-protected transfer source: the fix is unsafe for this input
	// and must be rejected.
	GuardViolation string
	Valid          bool
}

// Apply runs the application twice — unpatched, then with the plan's
// elisions and correctness guards installed — and reports the realized
// benefit. The application must be deterministic (the same property FFM's
// multi-run collection depends on). For multi-process applications use
// ApplyWith so every process of the launch is patched.
func Apply(app proc.App, factory proc.Factory, plan *Plan, opts Options) (*Validation, error) {
	p0 := factory.New()
	if err := proc.SafeRun(app, p0); err != nil {
		return nil, fmt.Errorf("autofix: unpatched run: %w", err)
	}
	return ApplyWith(func(proc.Factory) proc.App { return app }, factory, p0.ExecTime(), plan, opts)
}

// ApplyWith runs the application with the plan installed and reports the
// realized benefit against original, the unpatched build's uninstrumented
// runtime. A caller holding the application's pipeline report passes its
// UninstrumentedTime: the reference run is that same simulation, so it
// need not run again. build receives the factory the application must use
// (the MPI launches spawn further processes from it), and the patched
// run's factory carries a Prepare hook installing the plan into *every*
// process it creates — one rank left unpatched would drag the collective
// and erase the benefit.
func ApplyWith(build func(proc.Factory) proc.App, factory proc.Factory, original simtime.Duration, plan *Plan, opts Options) (*Validation, error) {
	v := &Validation{Plan: plan, OriginalTime: original}

	var patchers []*patcher
	patchedFactory := factory
	patchedFactory.Prepare = func(p *proc.Process) {
		patchers = append(patchers, newPatcher(p, plan, opts))
	}
	p1 := patchedFactory.New()
	err := proc.SafeRun(build(patchedFactory), p1)
	if err != nil {
		if strings.Contains(err.Error(), "write-protected") {
			// The guard tripped: the elided transfer's source was later
			// mutated, so the deduplication would change results.
			v.GuardViolation = err.Error()
			v.Valid = false
			return v, nil
		}
		return nil, fmt.Errorf("autofix: patched run: %w", err)
	}
	v.PatchedTime = p1.ExecTime()
	v.Realized = v.OriginalTime - v.PatchedTime
	if v.OriginalTime > 0 {
		v.RealizedPct = 100 * float64(v.Realized) / float64(v.OriginalTime)
		v.EstimatedPct = 100 * float64(plan.Estimated) / float64(v.OriginalTime)
	}
	for _, n := range p1.Ctx.SuppressedCalls() {
		v.SuppressedCalls += n
	}
	for _, pt := range patchers {
		v.GuardedRanges += pt.guarded
	}
	v.Valid = true
	return v, nil
}

// patcher installs the plan as a call filter plus guard probes.
type patcher struct {
	p    *proc.Process
	opts Options
	// byPoint maps point keys to their action; dedup points track whether
	// the first occurrence has happened.
	byPoint map[string]*patchPoint
	guarded int
}

type patchPoint struct {
	action Action
	seen   int
}

func newPatcher(p *proc.Process, plan *Plan, opts Options) *patcher {
	pt := &patcher{p: p, opts: opts, byPoint: make(map[string]*patchPoint)}
	for _, a := range plan.Actions {
		a := a
		pt.byPoint[a.PointKey] = &patchPoint{action: a}
	}

	// Guard probe: when the first (kept) occurrence of a deduplicated
	// transfer executes, write-protect its host source region — the §5.1
	// const/mprotect technique.
	if opts.Guard {
		guard := func(call *cuda.Call) {
			if call.Kind != cuda.KindTransfer || call.Dir != cuda.DirH2D || call.HostSize == 0 {
				return
			}
			key := string(call.Func) + "|" + call.Stack.Key()
			pp, ok := pt.byPoint[key]
			if !ok || pp.action.Kind != DedupTransfer {
				return
			}
			if r := p.Host.RegionAt(memory.Addr(call.HostAddr)); r != nil && !r.Protected() {
				p.Host.Protect(r)
				pt.guarded++
			}
		}
		p.Ctx.SetStackCapture(true)
		p.Ctx.AttachProbe(cuda.FuncMemcpy, cuda.Probe{Exit: guard})
		p.Ctx.AttachProbe(cuda.FuncMemcpyAsync, cuda.Probe{Exit: guard})
	}

	p.Ctx.SetCallFilter(func(fn cuda.Func, stack callstack.Trace) cuda.CallDecision {
		key := string(fn) + "|" + stack.Key()
		pp, ok := pt.byPoint[key]
		if !ok {
			return cuda.Proceed
		}
		switch pp.action.Kind {
		case DedupTransfer:
			pp.seen++
			if pp.seen == 1 {
				return cuda.Proceed // first transfer carries the data
			}
			return cuda.Suppress
		case PoolFree, RemoveSync:
			pp.seen++
			return cuda.Suppress
		default:
			return cuda.Proceed
		}
	})
	return pt
}
