package report

import (
	"bytes"
	"strings"
	"testing"

	"diogenes/internal/ffm"
	"diogenes/internal/simtime"
)

// TestFleetTablePartial pins the degraded rendering: a partial fleet
// report names its failed ranks prominently, marks their rows, and still
// renders every aggregate section for the survivors.
func TestFleetTablePartial(t *testing.T) {
	fr := &ffm.FleetReport{
		App:         "amg",
		Ranks:       3,
		Analyzed:    2,
		Partial:     true,
		FailedRanks: []int{1},
		PerRank: []ffm.RankOutcome{
			{Rank: 0, Attempts: 1, ExecTime: 80 * simtime.Millisecond,
				TotalBenefit: 10 * simtime.Millisecond, Problems: 4},
			{Rank: 1, Attempts: 2, Retried: true, Err: "pipeline panicked: injected"},
			{Rank: 2, Attempts: 2, Retried: true, ExecTime: 80 * simtime.Millisecond,
				TotalBenefit: 10 * simtime.Millisecond, Problems: 4},
		},
		Duplicates: []ffm.FleetDuplicate{
			{Hash: "00aa11bb22cc33dd", Func: "cudaMemcpyAsync", Ranks: []int{0, 2}, Records: 2, Bytes: 8192},
		},
		CrossRankDupBytes: 8192,
		Problems: []ffm.FleetProblem{
			{Kind: "folded function", Label: "Fold on cudaFree", Ranks: []int{0, 2},
				Total: 20 * simtime.Millisecond, Min: 10 * simtime.Millisecond,
				Max: 10 * simtime.Millisecond, MinRank: 0, MaxRank: 2},
		},
	}
	var buf bytes.Buffer
	if err := FleetTable(&buf, fr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"DEGRADED: 1/3 rank pipelines failed; aggregates cover the 2 surviving ranks",
		"rank 1 (2 attempts): pipeline panicked: injected",
		"FAILED",
		"retried",
		"cudaMemcpyAsync",
		"unavailable (no rank pipeline completed)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("partial fleet table missing %q\n%s", want, out)
		}
	}
}
