// Package graph implements FFM's stage 5 analysis model (§3.5): the
// application-execution graph and the expected-benefit algorithm of
// Figure 5, together with the problem groupings of §3.5.2 (single point,
// folded function, sequence) and the subsequence refinement of §5.1.
//
// Execution is modelled as a chain of CPU nodes — CWork (CPU computation),
// CLaunch (requesting asynchronous GPU work, including transfers), CWait
// (waiting on GPU completion) — each carrying the duration of its outgoing
// CPU edge. GPU nodes (GWork/GWait) exist for reporting, but as the paper
// observes, "an effective estimate for the change in GPU idle duration ...
// can be made with only the CPU graph", and the benefit algorithms operate
// on the CPU chain alone.
package graph

import (
	"fmt"
	"sync/atomic"

	"diogenes/internal/callstack"
	"diogenes/internal/simtime"
)

// NodeType is the NType attribute of §3.5.
type NodeType uint8

// Node types. CWork/CLaunch/CWait are CPU events; GWork/GWait are GPU
// events.
const (
	CWork NodeType = iota
	CLaunch
	CWait
	GWork
	GWait
)

// String names the type using the paper's vocabulary.
func (t NodeType) String() string {
	switch t {
	case CWork:
		return "CWork"
	case CLaunch:
		return "CLaunch"
	case CWait:
		return "CWait"
	case GWork:
		return "GWork"
	case GWait:
		return "GWait"
	default:
		return fmt.Sprintf("NodeType(%d)", uint8(t))
	}
}

// Problem is the problem classification stages 3 and 4 attach to a node.
type Problem uint8

// Problem kinds.
const (
	ProblemNone Problem = iota
	UnnecessarySync
	MisplacedSync
	UnnecessaryTransfer
)

// String names the problem.
func (p Problem) String() string {
	switch p {
	case ProblemNone:
		return "none"
	case UnnecessarySync:
		return "unnecessary synchronization"
	case MisplacedSync:
		return "misplaced synchronization"
	case UnnecessaryTransfer:
		return "unnecessary transfer"
	default:
		return fmt.Sprintf("Problem(%d)", uint8(p))
	}
}

// Node is one event in the execution graph with the attributes of §3.5:
// (NType, STime, Problem, FirstUseTime), plus the duration label of its
// outgoing CPU edge and the provenance metadata the groupings need.
type Node struct {
	ID           int
	Type         NodeType
	STime        simtime.Time
	Problem      Problem
	FirstUseTime simtime.Duration
	// OutCPU is the Duration label of OutCPUEdge(N): the real time between
	// this event's start and the next CPU event. The benefit algorithms
	// mutate it.
	OutCPU simtime.Duration
	// inherited is wait time propagated onto this node by the removal of
	// an earlier synchronization (Figure 5 line 19 adds it to the next
	// synchronization's duration). It is kept separate from OutCPU so that
	// a subsequently-removed *transfer* does not claim upstream wait as
	// its own benefit; a removed synchronization's pool includes it.
	inherited simtime.Duration

	// Provenance (unset for synthetic CWork gap nodes).
	Func  string
	Stack callstack.Trace
	Seq   int64 // trace record sequence
}

// Problematic reports whether the node carries a problem classification.
func (n *Node) Problematic() bool { return n.Problem != ProblemNone }

// Graph is the execution graph. CPU holds the CPU chain in time order; GPU
// holds device events for reporting.
type Graph struct {
	CPU      []*Node
	GPU      []*Node
	ExecTime simtime.Duration

	// Cached benefit index (see index.go). Atomic so concurrent read-only
	// evaluations of one graph — e.g. two report renderings of a cached
	// analysis — can share it, and so invalidation during construction
	// (every AddCPU) costs one store, not a lock.
	idx atomic.Pointer[benefitIndex]
}

// New returns an empty graph with the given total execution time.
func New(execTime simtime.Duration) *Graph {
	return &Graph{ExecTime: execTime}
}

// AddCPU appends a CPU node to the chain, assigning its ID. It returns the
// node for further annotation.
func (g *Graph) AddCPU(n *Node) *Node {
	if n.Type != CWork && n.Type != CLaunch && n.Type != CWait {
		panic(fmt.Sprintf("graph: AddCPU with GPU node type %v", n.Type))
	}
	n.ID = len(g.CPU)
	g.CPU = append(g.CPU, n)
	g.InvalidateIndex()
	return n
}

// AddGPU appends a GPU node.
func (g *Graph) AddGPU(n *Node) *Node {
	if n.Type != GWork && n.Type != GWait {
		panic(fmt.Sprintf("graph: AddGPU with CPU node type %v", n.Type))
	}
	n.ID = len(g.GPU)
	g.GPU = append(g.GPU, n)
	return n
}

// Clone deep-copies the graph so a benefit evaluation (which mutates edge
// durations) can run without destroying the original. Subsequence
// evaluation relies on this: "the evaluation of the benefit of fixing this
// subset of operations does not require additional data collection" (§5.1).
func (g *Graph) Clone() *Graph {
	out := &Graph{ExecTime: g.ExecTime}
	// Nodes live in one backing array per chain: a clone costs three
	// allocations regardless of graph size, which matters because every
	// benefit evaluation starts with one.
	cpu := make([]Node, len(g.CPU))
	out.CPU = make([]*Node, len(g.CPU))
	for i, n := range g.CPU {
		cpu[i] = *n
		out.CPU[i] = &cpu[i]
	}
	gpuNodes := make([]Node, len(g.GPU))
	out.GPU = make([]*Node, len(g.GPU))
	for i, n := range g.GPU {
		gpuNodes[i] = *n
		out.GPU[i] = &gpuNodes[i]
	}
	return out
}

// resetFrom restores g's node values from src, which must be a graph of the
// same shape (a Clone of src). It allocates nothing, so an evaluator can
// reuse one scratch clone across many evaluations.
func (g *Graph) resetFrom(src *Graph) {
	g.InvalidateIndex()
	g.ExecTime = src.ExecTime
	for i, n := range src.CPU {
		*g.CPU[i] = *n
	}
	for i, n := range src.GPU {
		*g.GPU[i] = *n
	}
}

// ProblematicNodes returns the CPU nodes carrying a problem, in chain order.
func (g *Graph) ProblematicNodes() []*Node {
	var out []*Node
	for _, n := range g.CPU {
		if n.Problematic() {
			out = append(out, n)
		}
	}
	return out
}

// NextSyncIndex returns the index of the next CWait node strictly after
// index i, or len(g.CPU) if none. This is GetNextSyncNode of Figure 5; when
// no later synchronization exists, the virtual end-of-program node acts as
// the next synchronization with an unbounded capacity to absorb delay.
func (g *Graph) NextSyncIndex(i int) int {
	for j := i + 1; j < len(g.CPU); j++ {
		if g.CPU[j].Type == CWait {
			return j
		}
	}
	return len(g.CPU)
}

// SumDurationBetween sums the OutCPU durations of nodes strictly between
// indexes i and j whose type is CLaunch or CWork — Figure 5's
// SumDuration(CPUNodesBetween(Node, NextSync, CLaunch or CWork)). This is
// the upper bound on the GPU idle time available to absorb a removed wait.
func (g *Graph) SumDurationBetween(i, j int) simtime.Duration {
	var total simtime.Duration
	if j > len(g.CPU) {
		j = len(g.CPU)
	}
	for k := i + 1; k < j; k++ {
		if t := g.CPU[k].Type; t == CLaunch || t == CWork {
			total += g.CPU[k].OutCPU
		}
	}
	return total
}

// Validate checks structural invariants: CPU nodes in nondecreasing STime
// order and nonnegative durations. It returns the first violation found.
func (g *Graph) Validate() error {
	var prev simtime.Time
	for i, n := range g.CPU {
		if n.STime < prev {
			return fmt.Errorf("graph: CPU node %d starts at %v before predecessor %v", i, n.STime, prev)
		}
		prev = n.STime
		if n.OutCPU < 0 {
			return fmt.Errorf("graph: CPU node %d has negative duration %v", i, n.OutCPU)
		}
		if n.Type != CWait && n.Problem == MisplacedSync {
			return fmt.Errorf("graph: node %d is %v but marked misplaced synchronization", i, n.Type)
		}
	}
	return nil
}
