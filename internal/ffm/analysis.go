package ffm

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"diogenes/internal/ffm/graph"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// AnalysisOptions configures stage 5.
type AnalysisOptions struct {
	// MisplacedThreshold is the minimum time-to-first-use for a required
	// synchronization to be classified as misplaced ("a large time gap
	// indicates a potentially misplaced synchronization", §3.4).
	MisplacedThreshold simtime.Duration
	// Graph passes through the benefit-evaluation options.
	Graph graph.Options
}

// DefaultAnalysisOptions returns the thresholds used for the paper's
// experiments.
func DefaultAnalysisOptions() AnalysisOptions {
	return AnalysisOptions{MisplacedThreshold: 40 * simtime.Microsecond}
}

// FuncSaving is one row of the per-API-function expected-savings summary
// (the Diogenes column of Table 2).
type FuncSaving struct {
	Func    string           `json:"func"`
	Savings simtime.Duration `json:"savings"`
	Percent float64          `json:"percent"`
	Pos     int              `json:"pos"`
	Count   int              `json:"count"`
}

// Analysis is stage 5's output.
type Analysis struct {
	App      string
	ExecTime simtime.Duration // execution time the estimates are relative to
	Graph    *graph.Graph

	SinglePoints []graph.Group
	Folds        []graph.Group
	Sequences    []graph.Group
	// Overview merges folded-function and sequence groups sorted by
	// benefit — the Figure 7 top-level display.
	Overview []graph.Group

	Opts AnalysisOptions
}

// Analyze executes stage 5 (§3.5): build the execution graph from the
// annotated trace, classify each operation's problem, and evaluate the
// expected benefit under all three groupings. The run must already carry
// stage 3/4 annotations (and, conventionally, stage 2 timings via
// MatchStage2Timing).
func Analyze(annotated *trace.Run, opts AnalysisOptions) *Analysis {
	g := BuildGraph(annotated, opts)
	a := &Analysis{
		App:      annotated.App,
		ExecTime: annotated.ExecTime,
		Graph:    g,
		Opts:     opts,
	}
	a.SinglePoints = graph.SinglePointGroups(g, opts.Graph)
	a.Folds = graph.FoldedFunctionGroups(g, opts.Graph)
	a.Sequences = graph.Sequences(g, opts.Graph)
	a.Overview = append(append([]graph.Group{}, a.Folds...), a.Sequences...)
	sort.SliceStable(a.Overview, func(i, j int) bool {
		return a.Overview[i].Benefit > a.Overview[j].Benefit
	})
	return a
}

// BuildGraph converts an annotated trace run into the §3.5 execution graph:
// synchronization records become CWait nodes, transfer records CLaunch
// nodes, and the gaps between driver calls CWork nodes. Problem
// classification follows §3.3/§3.4: a synchronization protecting data never
// accessed afterwards is unnecessary; one whose protected data is first
// used a long time later is misplaced; a transfer whose payload hash was
// seen before is an unnecessary (duplicate) transfer.
func BuildGraph(run *trace.Run, opts AnalysisOptions) *graph.Graph {
	g := graph.New(run.ExecTime)
	// One backing array for every node the build can produce (a gap node
	// per record, the record's own node, and the tail), sized up front so
	// pointers into it stay stable: one allocation instead of one per node.
	backing := make([]graph.Node, 0, 2*len(run.Records)+1)
	alloc := func(n graph.Node) *graph.Node {
		backing = append(backing, n)
		return &backing[len(backing)-1]
	}
	var cursor simtime.Time
	for i := range run.Records {
		rec := &run.Records[i]
		if gap := rec.Entry.Sub(cursor); gap > 0 {
			g.AddCPU(alloc(graph.Node{Type: graph.CWork, STime: cursor, OutCPU: gap}))
		}
		n := alloc(graph.Node{
			STime:  rec.Entry,
			OutCPU: rec.Duration(),
			Func:   rec.Func,
			Stack:  rec.Stack,
			Seq:    rec.Seq,
		})
		// Node type: anything that waited on the device is a CWait on the
		// CPU timeline (synchronous transfers included — unrealized wait
		// removed upstream reappears at them); a purely asynchronous
		// transfer is a CLaunch.
		synced := rec.Class == trace.ClassSync || rec.SyncWait > 0
		if synced {
			n.Type = graph.CWait
		} else {
			n.Type = graph.CLaunch
		}
		switch {
		case rec.Class == trace.ClassTransfer && rec.Duplicate:
			// A duplicate transfer is removed wholesale; its implicit
			// synchronization goes with it.
			n.Problem = graph.UnnecessaryTransfer
		case synced && !rec.ProtectedAccess:
			// The synchronization protects data the CPU never reads: for a
			// plain sync it can be deleted; for a synchronous transfer the
			// wait is avoidable (e.g. an async copy into pinned memory).
			n.Problem = graph.UnnecessarySync
		case synced && rec.FirstUse >= opts.MisplacedThreshold:
			n.Problem = graph.MisplacedSync
			n.FirstUseTime = rec.FirstUse
		}
		g.AddCPU(n)
		if rec.Exit > cursor {
			cursor = rec.Exit
		}
	}
	if tail := simtime.Time(run.ExecTime).Sub(cursor); tail > 0 {
		g.AddCPU(alloc(graph.Node{Type: graph.CWork, STime: cursor, OutCPU: tail}))
	}
	return g
}

// Percent expresses a duration as a percentage of the analysed execution
// time.
func (a *Analysis) Percent(d simtime.Duration) float64 {
	if a.ExecTime <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(a.ExecTime)
}

// TotalBenefit returns the plain (ungrouped) expected benefit over all
// problems.
func (a *Analysis) TotalBenefit() simtime.Duration {
	return graph.ExpectedBenefit(a.Graph, a.Opts.Graph).Total
}

// ProblemCounts returns how many nodes carry each problem class.
func (a *Analysis) ProblemCounts() map[graph.Problem]int {
	out := make(map[graph.Problem]int)
	for _, n := range a.Graph.ProblematicNodes() {
		out[n.Problem]++
	}
	return out
}

// SavingsByFunc aggregates expected benefit per API function and assigns
// descending positions — the Diogenes column of Table 2. Functions with no
// problematic operations do not appear: "Diogenes does not collect
// performance data on calls that do not contain a problematic
// synchronization or memory transfer operation" (§5.2).
func (a *Analysis) SavingsByFunc() []FuncSaving {
	res := graph.ExpectedBenefit(a.Graph, a.Opts.Graph)
	byFunc := make(map[string]*FuncSaving)
	for _, nb := range res.PerNode {
		fs, ok := byFunc[nb.Node.Func]
		if !ok {
			fs = &FuncSaving{Func: nb.Node.Func}
			byFunc[nb.Node.Func] = fs
		}
		fs.Savings += nb.Benefit
		fs.Count++
	}
	out := make([]FuncSaving, 0, len(byFunc))
	for _, fs := range byFunc {
		fs.Percent = a.Percent(fs.Savings)
		out = append(out, *fs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Savings != out[j].Savings {
			return out[i].Savings > out[j].Savings
		}
		return out[i].Func < out[j].Func
	})
	for i := range out {
		out[i].Pos = i + 1
	}
	return out
}

// Subsequence re-evaluates entries [from, to] of the given sequence group
// without further data collection (§5.1, Figure 8).
func (a *Analysis) Subsequence(seq graph.Group, from, to int) (graph.Group, error) {
	return graph.Subsequence(a.Graph, seq, from, to, a.Opts.Graph)
}

// jsonGroup is the export form of a group.
type jsonGroup struct {
	Kind      string           `json:"kind"`
	Label     string           `json:"label"`
	Benefit   simtime.Duration `json:"benefit"`
	Percent   float64          `json:"percent"`
	Syncs     int              `json:"syncIssues"`
	Transfers int              `json:"transferIssues"`
	Entries   []string         `json:"entries,omitempty"`
}

type jsonAnalysis struct {
	App          string           `json:"app"`
	ExecTime     simtime.Duration `json:"execTime"`
	TotalBenefit simtime.Duration `json:"totalBenefit"`
	Overview     []jsonGroup      `json:"overview"`
	SinglePoints []jsonGroup      `json:"singlePoints"`
	Savings      []FuncSaving     `json:"savingsByFunc"`
}

func (a *Analysis) exportGroups(gs []graph.Group, withEntries bool) []jsonGroup {
	out := make([]jsonGroup, 0, len(gs))
	for _, grp := range gs {
		jg := jsonGroup{
			Kind:      grp.Kind.String(),
			Label:     grp.Label,
			Benefit:   grp.Benefit,
			Percent:   a.Percent(grp.Benefit),
			Syncs:     grp.Syncs,
			Transfers: grp.Transfers,
		}
		if withEntries {
			for _, n := range grp.Nodes {
				leaf := n.Stack.Leaf()
				jg.Entries = append(jg.Entries, fmt.Sprintf("%s in %s at line %d", n.Func, leaf.File, leaf.Line))
			}
		}
		out = append(out, jg)
	}
	return out
}

// WriteJSON exports the analysis in the tool's JSON format (§4: "The
// results are sorted by potential benefit and then exported in the JSON
// format, allowing other tools the ability to access data collected by
// Diogenes").
func (a *Analysis) WriteJSON(w io.Writer) error {
	compact, err := a.MarshalJSON()
	if err != nil {
		return err
	}
	return trace.WriteIndented(w, compact)
}

// MarshalJSON is the analysis's one encoding, compact; WriteJSON indents
// it and the report document splices it in as is.
func (a *Analysis) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonAnalysis{
		App:          a.App,
		ExecTime:     a.ExecTime,
		TotalBenefit: a.TotalBenefit(),
		Overview:     a.exportGroups(a.Overview, true),
		SinglePoints: a.exportGroups(a.SinglePoints, false),
		Savings:      a.SavingsByFunc(),
	})
}
