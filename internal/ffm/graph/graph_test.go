package graph

import (
	"testing"
	"testing/quick"

	"diogenes/internal/callstack"
	"diogenes/internal/simtime"
)

const ms = simtime.Millisecond

// chain builds a CPU chain from (type, duration) pairs, assigning start
// times cumulatively.
func chain(specs ...struct {
	t NodeType
	d simtime.Duration
	p Problem
}) *Graph {
	g := New(0)
	var at simtime.Time
	for _, s := range specs {
		g.AddCPU(&Node{Type: s.t, STime: at, OutCPU: s.d, Problem: s.p})
		at = at.Add(s.d)
	}
	g.ExecTime = simtime.Duration(at)
	return g
}

type spec = struct {
	t NodeType
	d simtime.Duration
	p Problem
}

// figure4Large builds the "Synchronization Removed with Large Benefit" side
// of Figure 4: ample CPU work follows the removed wait, so GPU idle time
// absorbs the whole wait.
func figure4Large() *Graph {
	return chain(
		spec{CWork, 8 * ms, ProblemNone},
		spec{CLaunch, 1 * ms, ProblemNone},
		spec{CWait, 10 * ms, UnnecessarySync}, // CWait0: the removed wait
		spec{CWork, 5 * ms, ProblemNone},
		spec{CLaunch, 1 * ms, ProblemNone},
		spec{CWork, 5 * ms, ProblemNone},
		spec{CWait, 4 * ms, ProblemNone}, // CWait1: necessary
		spec{CWork, 4 * ms, ProblemNone},
	)
}

// figure4Small builds the "Small benefit" side: little CPU work separates
// the removed wait from the next one, so the second wait grows to fill most
// of the time saved.
func figure4Small() *Graph {
	return chain(
		spec{CWork, 8 * ms, ProblemNone},
		spec{CLaunch, 1 * ms, ProblemNone},
		spec{CWait, 10 * ms, UnnecessarySync}, // CWait0: identical duration
		spec{CWork, 3 * ms, ProblemNone},
		spec{CWait, 9 * ms, ProblemNone}, // CWait1: necessary
		spec{CWork, 5 * ms, ProblemNone},
	)
}

func TestFigure4LargeBenefit(t *testing.T) {
	g := figure4Large()
	res := ExpectedBenefit(g, Options{})
	if len(res.PerNode) != 1 {
		t.Fatalf("problems = %d", len(res.PerNode))
	}
	if res.Total != 10*ms {
		t.Fatalf("benefit = %v, want full 10ms wait", res.Total)
	}
}

func TestFigure4SmallBenefit(t *testing.T) {
	g := figure4Small()
	res := ExpectedBenefit(g, Options{})
	// Only 3ms of CWork separates the waits: benefit is capped there.
	if res.Total != 3*ms {
		t.Fatalf("benefit = %v, want 3ms", res.Total)
	}
}

func TestFigure4IdenticalWaitDifferentOutcome(t *testing.T) {
	// The paper's point: the same 10ms wait yields different benefits
	// depending on the remaining operations.
	large := ExpectedBenefit(figure4Large(), Options{}).Total
	small := ExpectedBenefit(figure4Small(), Options{}).Total
	if large <= small {
		t.Fatalf("large %v not greater than small %v", large, small)
	}
}

func TestRemoveSyncGrowsNextWait(t *testing.T) {
	g := figure4Small()
	work := g.Clone()
	benefit := removeSynchronization(work, 2)
	if benefit != 3*ms {
		t.Fatalf("benefit = %v", benefit)
	}
	if work.CPU[2].OutCPU != 0 {
		t.Fatal("removed wait retains duration")
	}
	// CWait1 inherits the unrealized 7ms on top of its own 9ms.
	if work.CPU[4].inherited != 7*ms || work.CPU[4].OutCPU != 9*ms {
		t.Fatalf("next wait = %v own + %v inherited, want 9ms + 7ms",
			work.CPU[4].OutCPU, work.CPU[4].inherited)
	}
	// Original untouched.
	if g.CPU[2].OutCPU != 10*ms || g.CPU[4].OutCPU != 9*ms {
		t.Fatal("ExpectedBenefit mutated the input graph")
	}
}

func TestRemoveSyncAtEndOfProgram(t *testing.T) {
	// No later synchronization: the end of the program absorbs the wait
	// only insofar as CPU work remains.
	g := chain(
		spec{CWait, 10 * ms, UnnecessarySync},
		spec{CWork, 2 * ms, ProblemNone},
	)
	res := ExpectedBenefit(g, Options{})
	if res.Total != 2*ms {
		t.Fatalf("benefit = %v, want 2ms", res.Total)
	}
}

func TestMisplacedSyncUsesFirstUseTime(t *testing.T) {
	g := chain(
		spec{CWork, 5 * ms, ProblemNone},
		spec{CWait, 10 * ms, MisplacedSync},
		spec{CWork, 20 * ms, ProblemNone},
	)
	g.CPU[1].FirstUseTime = 6 * ms
	res := ExpectedBenefit(g, Options{})
	if res.Total != 6*ms {
		t.Fatalf("benefit = %v, want FirstUseTime 6ms", res.Total)
	}
}

func TestMisplacedSyncClampOption(t *testing.T) {
	g := chain(spec{CWait, 4 * ms, MisplacedSync})
	g.CPU[0].FirstUseTime = 9 * ms

	// Paper-faithful: returns FirstUseTime even beyond the wait duration.
	if got := ExpectedBenefit(g, Options{}).Total; got != 9*ms {
		t.Fatalf("unclamped = %v, want 9ms", got)
	}
	// Clamped variant: bounded by the wait itself.
	if got := ExpectedBenefit(g, Options{ClampMisplacedBenefit: true}).Total; got != 4*ms {
		t.Fatalf("clamped = %v, want 4ms", got)
	}
}

func TestRemoveTransferBenefitIsLaunchDuration(t *testing.T) {
	g := chain(
		spec{CLaunch, 7 * ms, UnnecessaryTransfer},
		spec{CWork, 3 * ms, ProblemNone},
	)
	res := ExpectedBenefit(g, Options{})
	if res.Total != 7*ms {
		t.Fatalf("benefit = %v, want 7ms", res.Total)
	}
}

func TestMultipleProblemsEvaluatedInOrder(t *testing.T) {
	// Two unnecessary syncs sharing one pool of idle: the first consumes
	// the CWork between them; the second sees only what remains after it.
	g := chain(
		spec{CWait, 10 * ms, UnnecessarySync},
		spec{CWork, 4 * ms, ProblemNone},
		spec{CWait, 10 * ms, UnnecessarySync},
		spec{CWork, 3 * ms, ProblemNone},
		spec{CWait, 5 * ms, ProblemNone},
	)
	res := ExpectedBenefit(g, Options{})
	if len(res.PerNode) != 2 {
		t.Fatalf("problems = %d", len(res.PerNode))
	}
	if res.PerNode[0].Benefit != 4*ms {
		t.Fatalf("first = %v, want 4ms", res.PerNode[0].Benefit)
	}
	if res.PerNode[1].Benefit != 3*ms {
		t.Fatalf("second = %v, want 3ms", res.PerNode[1].Benefit)
	}
	if res.Total != 7*ms {
		t.Fatalf("total = %v", res.Total)
	}
}

func TestSequenceEqualsPlainForAdjacentSyncs(t *testing.T) {
	// When every CWait between consecutive members is itself the next
	// member, Figure 5's plain algorithm already forwards unrealized
	// savings (via the next-sync duration bump), so the two evaluations
	// coincide.
	g := chain(
		spec{CWait, 10 * ms, UnnecessarySync},
		spec{CWork, 1 * ms, ProblemNone},
		spec{CWait, 2 * ms, UnnecessarySync},
		spec{CWork, 8 * ms, ProblemNone},
		spec{CWait, 5 * ms, ProblemNone},
	)
	members := []*Node{g.CPU[0], g.CPU[2]}
	plain := ExpectedBenefit(g, Options{})
	seq := SequenceBenefit(g, members, Options{})
	if plain.Total != seq.Total {
		t.Fatalf("plain %v != sequence %v", plain.Total, seq.Total)
	}
	if seq.Total != 9*ms { // 1ms absorbed at node0, 8ms of the carried 9+2 at node2
		t.Fatalf("total = %v, want 9ms", seq.Total)
	}
}

func TestSequenceCarryForwardOverMisplacedSync(t *testing.T) {
	// The §3.5.2 modification matters when carried savings must pass over
	// an intermediate member that is not an unnecessary synchronization.
	// Plain evaluation dumps node0's unrealized 9ms into the misplaced
	// wait at node2, where it is lost; the sequence evaluation carries it
	// to node4, whose 4ms idle window can absorb more of it.
	g := chain(
		spec{CWait, 10 * ms, UnnecessarySync}, // member
		spec{CWork, 1 * ms, ProblemNone},
		spec{CWait, 2 * ms, MisplacedSync}, // member, FirstUse 1ms
		spec{CWork, 8 * ms, ProblemNone},
		spec{CWait, 2 * ms, UnnecessarySync}, // member
		spec{CWork, 4 * ms, ProblemNone},
		spec{CWait, 5 * ms, ProblemNone}, // necessary: ends sequence
	)
	g.CPU[2].FirstUseTime = 1 * ms
	members := []*Node{g.CPU[0], g.CPU[2], g.CPU[4]}

	plain := ExpectedBenefit(g, Options{})
	seq := SequenceBenefit(g, members, Options{})
	if plain.Total != 4*ms { // 1 + 1 + 2
		t.Fatalf("plain = %v, want 4ms", plain.Total)
	}
	if seq.Total != 6*ms { // 1 + 1 + min(4 idle, 2+carry 9)
		t.Fatalf("sequence = %v, want 6ms", seq.Total)
	}
	if seq.PerNode[2].Benefit != 4*ms {
		t.Fatalf("last member = %v, want 4ms", seq.PerNode[2].Benefit)
	}
}

func stacked(fn, file string, line int, tmpl string) *Node {
	return &Node{
		Type:    CWait,
		Problem: UnnecessarySync,
		OutCPU:  1 * ms,
		Func:    fn,
		Stack: callstack.Trace{
			{Function: tmpl, File: file, Line: line},
			{Function: "main", File: "main.cpp", Line: 10},
		},
	}
}

func groupingGraph() *Graph {
	g := New(0)
	// Two cudaFree calls from the same instruction, one from another line,
	// all within template instantiations of the same base function.
	g.AddCPU(stacked("cudaFree", "s.h", 5, "storage<float>::drop"))
	g.AddCPU(&Node{Type: CWork, OutCPU: 10 * ms})
	g.AddCPU(stacked("cudaFree", "s.h", 5, "storage<float>::drop"))
	g.AddCPU(&Node{Type: CWork, OutCPU: 10 * ms})
	g.AddCPU(stacked("cudaFree", "s.h", 9, "storage<double>::drop"))
	g.AddCPU(&Node{Type: CWork, OutCPU: 10 * ms})
	g.AddCPU(&Node{Type: CWait, OutCPU: 2 * ms}) // necessary sync
	return g
}

func TestSinglePointGroups(t *testing.T) {
	gs := SinglePointGroups(groupingGraph(), Options{})
	if len(gs) != 2 {
		t.Fatalf("groups = %d, want 2", len(gs))
	}
	// The line-5 instruction appears twice: 2ms total, sorted first.
	if gs[0].Benefit != 2*ms || len(gs[0].Nodes) != 2 {
		t.Fatalf("group0 = %+v", gs[0])
	}
	if gs[1].Benefit != 1*ms || len(gs[1].Nodes) != 1 {
		t.Fatalf("group1 = %+v", gs[1])
	}
	if gs[0].Label != "cudaFree in s.h at line 5" {
		t.Fatalf("label = %q", gs[0].Label)
	}
	if gs[0].Syncs != 2 || gs[0].Transfers != 0 {
		t.Fatalf("counts = %d/%d", gs[0].Syncs, gs[0].Transfers)
	}
}

func TestFoldedFunctionGroupsMergeTemplates(t *testing.T) {
	gs := FoldedFunctionGroups(groupingGraph(), Options{})
	if len(gs) != 1 {
		t.Fatalf("groups = %d, want 1 (templates folded)", len(gs))
	}
	if gs[0].Benefit != 3*ms || len(gs[0].Nodes) != 3 {
		t.Fatalf("fold = %+v", gs[0])
	}
	if gs[0].Label != "Fold on cudaFree" {
		t.Fatalf("label = %q", gs[0].Label)
	}
}

func TestSequencesSplitAtNecessarySync(t *testing.T) {
	g := chain(
		spec{CWait, 2 * ms, UnnecessarySync},
		spec{CLaunch, 1 * ms, UnnecessaryTransfer},
		spec{CWork, 5 * ms, ProblemNone},
		spec{CWait, 3 * ms, ProblemNone}, // necessary: ends sequence 1
		spec{CWork, 2 * ms, ProblemNone},
		spec{CWait, 4 * ms, UnnecessarySync}, // sequence 2
		spec{CWork, 6 * ms, ProblemNone},
	)
	gs := Sequences(g, Options{})
	if len(gs) != 2 {
		t.Fatalf("sequences = %d, want 2", len(gs))
	}
	var sizes []int
	for _, s := range gs {
		sizes = append(sizes, len(s.Nodes))
	}
	if (sizes[0] != 2 && sizes[1] != 2) || (sizes[0] != 1 && sizes[1] != 1) {
		t.Fatalf("sizes = %v", sizes)
	}
	for _, s := range gs {
		if s.Kind != Sequence {
			t.Fatal("wrong kind")
		}
		if len(s.Nodes) == 2 && (s.Syncs != 1 || s.Transfers != 1) {
			t.Fatalf("seq counts = %d/%d", s.Syncs, s.Transfers)
		}
	}
}

func TestSubsequence(t *testing.T) {
	g := chain(
		spec{CWait, 2 * ms, UnnecessarySync},
		spec{CWork, 1 * ms, ProblemNone},
		spec{CWait, 2 * ms, UnnecessarySync},
		spec{CWork, 5 * ms, ProblemNone},
		spec{CWait, 2 * ms, UnnecessarySync},
		spec{CWork, 5 * ms, ProblemNone},
		spec{CWait, 3 * ms, ProblemNone},
	)
	seqs := Sequences(g, Options{})
	if len(seqs) != 1 || len(seqs[0].Nodes) != 3 {
		t.Fatalf("seqs = %+v", seqs)
	}
	sub, err := Subsequence(g, seqs[0], 2, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Nodes) != 2 {
		t.Fatalf("sub nodes = %d", len(sub.Nodes))
	}
	if sub.Benefit <= 0 || sub.Benefit > seqs[0].Benefit {
		t.Fatalf("sub benefit %v vs seq %v", sub.Benefit, seqs[0].Benefit)
	}
	// Range errors.
	if _, err := Subsequence(g, seqs[0], 0, 2, Options{}); err == nil {
		t.Fatal("from=0 accepted")
	}
	if _, err := Subsequence(g, seqs[0], 3, 2, Options{}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := Subsequence(g, seqs[0], 1, 4, Options{}); err == nil {
		t.Fatal("past-end range accepted")
	}
	if _, err := Subsequence(g, Group{Kind: SinglePoint}, 1, 1, Options{}); err == nil {
		t.Fatal("non-sequence group accepted")
	}
}

func TestValidate(t *testing.T) {
	g := figure4Large()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New(0)
	bad.AddCPU(&Node{Type: CWork, STime: 10, OutCPU: 1})
	bad.AddCPU(&Node{Type: CWork, STime: 5, OutCPU: 1})
	if bad.Validate() == nil {
		t.Fatal("out-of-order STime accepted")
	}
	neg := New(0)
	neg.AddCPU(&Node{Type: CWork, OutCPU: -1})
	if neg.Validate() == nil {
		t.Fatal("negative duration accepted")
	}
	mis := New(0)
	mis.AddCPU(&Node{Type: CLaunch, Problem: MisplacedSync})
	if mis.Validate() == nil {
		t.Fatal("misplaced sync on non-wait accepted")
	}
}

func TestAddNodePanics(t *testing.T) {
	g := New(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddCPU accepted GPU node")
			}
		}()
		g.AddCPU(&Node{Type: GWork})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddGPU accepted CPU node")
			}
		}()
		g.AddGPU(&Node{Type: CWait})
	}()
}

func TestCloneIndependence(t *testing.T) {
	g := figure4Large()
	c := g.Clone()
	c.CPU[0].OutCPU = 999 * ms
	if g.CPU[0].OutCPU == 999*ms {
		t.Fatal("clone aliases original")
	}
	if len(c.CPU) != len(g.CPU) || c.ExecTime != g.ExecTime {
		t.Fatal("clone incomplete")
	}
}

// totalCPU sums all CPU edge durations: the modelled critical path length
// on the CPU side.
func totalCPU(g *Graph) simtime.Duration {
	var total simtime.Duration
	for _, n := range g.CPU {
		total += n.OutCPU
	}
	return total
}

func TestTotalCPUAndHelpers(t *testing.T) {
	g := figure4Large()
	if totalCPU(g) != 38*ms {
		t.Fatalf("total CPU = %v", totalCPU(g))
	}
	if g.NextSyncIndex(2) != 6 {
		t.Fatalf("NextSyncIndex = %d", g.NextSyncIndex(2))
	}
	if g.NextSyncIndex(6) != len(g.CPU) {
		t.Fatal("NextSyncIndex past last sync wrong")
	}
	if g.SumDurationBetween(2, 6) != 11*ms {
		t.Fatalf("SumDurationBetween = %v", g.SumDurationBetween(2, 6))
	}
	if got := g.ProblematicNodes(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("ProblematicNodes = %v", got)
	}
}

func TestStrings(t *testing.T) {
	for ty, want := range map[NodeType]string{CWork: "CWork", CLaunch: "CLaunch", CWait: "CWait", GWork: "GWork", GWait: "GWait"} {
		if ty.String() != want {
			t.Errorf("%v.String() = %q", ty, ty.String())
		}
	}
	for p, want := range map[Problem]string{
		ProblemNone: "none", UnnecessarySync: "unnecessary synchronization",
		MisplacedSync: "misplaced synchronization", UnnecessaryTransfer: "unnecessary transfer",
	} {
		if p.String() != want {
			t.Errorf("%v.String() = %q", p, p.String())
		}
	}
	for k, want := range map[GroupKind]string{SinglePoint: "single point", FoldedFunction: "folded function", Sequence: "sequence"} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
}

// buildRandomGraph converts fuzz bytes into a structurally valid graph.
func buildRandomGraph(raw []byte) *Graph {
	g := New(0)
	var at simtime.Time
	for i := 0; i+1 < len(raw) && i < 60; i += 2 {
		ty := NodeType(raw[i] % 3)
		d := simtime.Duration(raw[i+1]%50) * ms
		p := ProblemNone
		if ty == CWait && raw[i]%5 == 0 {
			p = UnnecessarySync
		}
		if ty == CWait && raw[i]%7 == 0 {
			p = MisplacedSync
		}
		if ty == CLaunch && raw[i]%4 == 0 {
			p = UnnecessaryTransfer
		}
		n := g.AddCPU(&Node{Type: ty, STime: at, OutCPU: d, Problem: p})
		if p == MisplacedSync {
			n.FirstUseTime = simtime.Duration(raw[i+1]%20) * ms
		}
		at = at.Add(d)
	}
	return g
}

func TestQuickBenefitNonNegativeAndBounded(t *testing.T) {
	f := func(raw []byte) bool {
		g := buildRandomGraph(raw)
		total := totalCPU(g)
		res := ExpectedBenefit(g, Options{ClampMisplacedBenefit: true})
		if res.Total < 0 {
			return false
		}
		// With clamping, no estimate can exceed the CPU time available.
		return res.Total <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExpectedBenefitDoesNotMutate(t *testing.T) {
	f := func(raw []byte) bool {
		g := buildRandomGraph(raw)
		before := make([]simtime.Duration, len(g.CPU))
		for i, n := range g.CPU {
			before[i] = n.OutCPU
		}
		ExpectedBenefit(g, Options{})
		for i, n := range g.CPU {
			if n.OutCPU != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSequenceAtLeastPlainForUnnecessarySyncs(t *testing.T) {
	// Carry-forward can only help: for graphs whose problems are all
	// unnecessary synchronizations, evaluating them as one sequence yields
	// at least the plain per-node total.
	f := func(raw []byte) bool {
		g := buildRandomGraph(raw)
		var members []*Node
		for _, n := range g.CPU {
			if n.Problem == UnnecessarySync {
				members = append(members, n)
			} else if n.Problematic() {
				n.Problem = ProblemNone
			}
		}
		if len(members) == 0 {
			return true
		}
		plain := ExpectedBenefit(g, Options{}).Total
		seq := SequenceBenefit(g, members, Options{}).Total
		return seq >= plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
