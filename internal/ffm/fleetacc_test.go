package ffm

import (
	"bytes"
	"fmt"
	"strings"
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

// cut folds ranks [0, ranks) into contiguous partials of size batch, the
// last one ragged, merging each batch's folds in rank order.
func cut(t *testing.T, ranks, batch int) []*FleetPartial {
	t.Helper()
	var parts []*FleetPartial
	for lo := 0; lo < ranks; lo += batch {
		var part *FleetPartial
		for r := lo; r < min(lo+batch, ranks); r++ {
			var err error
			if part, err = Merge(part, FoldRankOutcome(synthOutcome(r))); err != nil {
				t.Fatal(err)
			}
		}
		parts = append(parts, part)
	}
	return parts
}

// TestAssembleFleetCuts is the core equivalence claim: every contiguous
// cut of the world assembles to the same bytes as one leaf per rank, and
// AssembleFleet absorbs each part after the first exactly once.
func TestAssembleFleetCuts(t *testing.T) {
	const ranks = 97
	want, err := AssembleFleet("synth", ranks, cut(t, ranks, 1), func() {})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 16, 64, 97} {
		parts := cut(t, ranks, batch)
		merges := 0
		fr, err := AssembleFleet("synth", ranks, parts, func() { merges++ })
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if !bytes.Equal(reportBytes(t, fr), reportBytes(t, want)) {
			t.Fatalf("batch=%d: assembled report differs from the per-rank fold", batch)
		}
		if merges != len(parts)-1 {
			t.Fatalf("batch=%d: %d merges, want %d", batch, merges, len(parts)-1)
		}
	}
}

// TestAssembleFleetRefusesGaps: a reduction that does not tile the world
// must refuse to assemble, naming the first rank not covered, rather than
// return a silently truncated report.
func TestAssembleFleetRefusesGaps(t *testing.T) {
	const ranks = 8
	// AssembleFleet absorbs into its first part, so each case cuts afresh:
	// [0,2) [2,4) [4,6) [6,8).
	for _, c := range []struct {
		name string
		pick func(p []*FleetPartial) []*FleetPartial
		want string
	}{
		{"missing tail", func(p []*FleetPartial) []*FleetPartial { return p[:3] }, "rank 6 of 8 not covered"},
		{"gap", func(p []*FleetPartial) []*FleetPartial { return []*FleetPartial{p[0], p[2], p[3]} }, "rank 2 not covered"},
		{"nil part", func(p []*FleetPartial) []*FleetPartial { return []*FleetPartial{p[0], nil, p[2], p[3]} }, "rank 2 not covered"},
		{"overlap", func(p []*FleetPartial) []*FleetPartial { return []*FleetPartial{p[0], p[1], p[1]} }, "overlaps"},
		{"no parts", func([]*FleetPartial) []*FleetPartial { return nil }, "rank 0 of 8 not covered"},
	} {
		_, err := AssembleFleet("synth", ranks, c.pick(cut(t, ranks, 2)), func() {})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
