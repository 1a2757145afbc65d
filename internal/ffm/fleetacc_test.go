package ffm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"diogenes/internal/ffm/graph"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// synthOutcome fabricates one rank's outcome with enough texture to
// exercise every merge rule: digests shared by all ranks (cross-rank
// duplicates), digests unique to the rank (dropped at assembly), records
// the scan must ignore (wrong class, invalid digest), problem groups
// shared and unique, and a sprinkling of failed ranks.
func synthOutcome(rank int) RankOutcome {
	if rank%13 == 5 {
		return RankOutcome{Rank: rank, Err: "injected rank fault", Attempts: 2, Retried: true}
	}
	run := &trace.Run{App: "synth", ExecTime: 1000}
	var seq int64
	add := func(rec trace.Record) {
		seq++
		rec.Seq = seq
		run.Records = append(run.Records, rec)
	}
	for i := 0; i < 8; i++ {
		add(trace.Record{
			Func: "cudaMemcpy", Class: trace.ClassTransfer,
			Bytes: 4096 + 512*i, Duplicate: i%2 == 1,
			Hash: fmt.Sprintf("%016x", i+1),
		})
	}
	for i := 0; i < 2; i++ {
		add(trace.Record{
			Func: "cudaMemcpyAsync", Class: trace.ClassTransfer,
			Bytes: 1024, Hash: fmt.Sprintf("%08x%08x", rank+1, 0xabc+i),
		})
	}
	add(trace.Record{Func: "cudaMemcpy", Class: trace.ClassTransfer, Bytes: 7, Hash: "not-a-digest"})
	add(trace.Record{Func: "cudaDeviceSynchronize", Class: trace.ClassSync})

	g := graph.New(0)
	g.AddCPU(&graph.Node{Type: graph.CWait, OutCPU: simtime.Duration(1+rank%3) * simtime.Millisecond, Problem: graph.UnnecessarySync})
	an := &Analysis{
		App: "synth", ExecTime: 1000, Graph: g,
		Overview: []graph.Group{
			{Kind: graph.SinglePoint, Label: "cudaFree", Benefit: simtime.Duration(1+(rank*7)%5) * simtime.Millisecond},
			{Kind: graph.SinglePoint, Label: fmt.Sprintf("group%d", rank%4), Benefit: simtime.Duration(100+rank) * simtime.Microsecond},
		},
	}
	rep := &Report{
		App:                "synth",
		UninstrumentedTime: simtime.Duration(10+rank) * simtime.Millisecond,
		Trace:              run,
		Analysis:           an,
	}
	return RankOutcome{Rank: rank, Report: rep, Attempts: 1}
}

func synthOutcomes(ranks int) []RankOutcome {
	out := make([]RankOutcome, ranks)
	for r := range out {
		out[r] = synthOutcome(r)
	}
	return out
}

func reportBytes(t *testing.T, fr *FleetReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFoldReleasesReport is the memory contract: folding strips the
// outcome's report pointer, so the rank's pipeline state is collectable
// the moment the fold returns.
func TestFoldReleasesReport(t *testing.T) {
	p := FoldRankOutcome(synthOutcome(0))
	if len(p.Outcomes) != 1 || p.Outcomes[0].Report != nil {
		t.Fatalf("fold retained the report: %+v", p.Outcomes)
	}
	if p.Outcomes[0].ExecTime == 0 || p.Outcomes[0].Duplicates == 0 {
		t.Fatalf("summary fields not filled: %+v", p.Outcomes[0])
	}
	if len(p.Dups) != 10 { // 8 shared + 2 rank-unique; invalid/non-transfer ignored
		t.Fatalf("leaf kept %d digests, want 10 (single-rank digests must survive until assembly)", len(p.Dups))
	}
}

// TestMergeRequiresAdjacency pins the determinism guard: only partials
// over adjacent rank ranges may merge, in range order.
func TestMergeRequiresAdjacency(t *testing.T) {
	a, b, d := FoldRankOutcome(synthOutcome(0)), FoldRankOutcome(synthOutcome(1)), FoldRankOutcome(synthOutcome(3))
	if _, err := Merge(a, d); err == nil {
		t.Fatal("gap merge accepted")
	}
	if _, err := Merge(b, a); err == nil {
		t.Fatal("reversed merge accepted")
	}
	m, err := Merge(a, b)
	if err != nil || m.Lo != 0 || m.Hi != 2 {
		t.Fatalf("adjacent merge: %v, range [%d,%d)", err, m.Lo, m.Hi)
	}
}

// TestAccumulatorMatchesAggregate is the core equivalence claim: offering
// single-rank folds in any completion order yields a report byte-identical
// to AggregateFleet over the same outcomes. The orders are five random
// permutations plus the worst case for parking — all evens, then all odds
// — where nothing merges until the odds arrive.
func TestAccumulatorMatchesAggregate(t *testing.T) {
	const ranks = 97
	want := reportBytes(t, AggregateFleet("synth", ranks, synthOutcomes(ranks)))
	rng := rand.New(rand.NewSource(42))
	var orders [][]int
	for trial := 0; trial < 5; trial++ {
		orders = append(orders, rng.Perm(ranks))
	}
	var evensThenOdds []int
	for start := 0; start < 2; start++ {
		for r := start; r < ranks; r += 2 {
			evensThenOdds = append(evensThenOdds, r)
		}
	}
	orders = append(orders, evensThenOdds)
	for trial, order := range orders {
		acc := NewFleetAccumulator(ranks)
		for _, r := range order {
			if err := acc.Add(synthOutcome(r)); err != nil {
				t.Fatal(err)
			}
		}
		fr, err := acc.Finalize("synth")
		if err != nil {
			t.Fatal(err)
		}
		if got := reportBytes(t, fr); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: streaming report differs from aggregate (%d vs %d bytes)", trial, len(got), len(want))
		}
		p := acc.Progress()
		if p.RanksDone != ranks || p.RanksTotal != ranks {
			t.Fatalf("progress %+v, want %d/%d ranks", p, ranks, ranks)
		}
		if p.Merges < ranks-1 {
			t.Fatalf("merges = %d, want >= %d", p.Merges, ranks-1)
		}
	}
}

// TestAccumulatorBatchedOffers is the same equivalence under the engine's
// real shape: contiguous batches of varying size folded locally, offered
// in random completion order.
func TestAccumulatorBatchedOffers(t *testing.T) {
	const ranks = 64
	want := reportBytes(t, AggregateFleet("synth", ranks, synthOutcomes(ranks)))
	rng := rand.New(rand.NewSource(7))
	for _, batch := range []int{1, 3, 16, 64} {
		var parts []*FleetPartial
		for lo := 0; lo < ranks; lo += batch {
			hi := lo + batch
			if hi > ranks {
				hi = ranks
			}
			var part *FleetPartial
			for r := lo; r < hi; r++ {
				var err error
				if part, err = Merge(part, FoldRankOutcome(synthOutcome(r))); err != nil {
					t.Fatal(err)
				}
			}
			parts = append(parts, part)
		}
		acc := NewFleetAccumulator(ranks)
		for _, i := range rng.Perm(len(parts)) {
			for r := 0; r < parts[i].Hi-parts[i].Lo; r++ {
				acc.RankDone()
			}
			if err := acc.Offer(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		fr, err := acc.Finalize("synth")
		if err != nil {
			t.Fatal(err)
		}
		if got := reportBytes(t, fr); !bytes.Equal(got, want) {
			t.Fatalf("batch=%d: streaming report differs from aggregate", batch)
		}
	}
}

// TestAccumulatorIncompleteFinalize: a reduction with missing ranks must
// refuse to assemble rather than return a silently truncated report.
func TestAccumulatorIncompleteFinalize(t *testing.T) {
	acc := NewFleetAccumulator(8)
	for r := 0; r < 4; r++ {
		if err := acc.Add(synthOutcome(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := acc.Finalize("synth"); err == nil {
		t.Fatal("finalize accepted a reduction missing ranks 4-7")
	}
	acc2 := NewFleetAccumulator(8)
	if err := acc2.Offer(FoldRankOutcome(synthOutcome(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := acc2.Finalize("synth"); err == nil {
		t.Fatal("finalize accepted a single partial not starting at rank 0")
	}
}
