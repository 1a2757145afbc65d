package ffm

import (
	"encoding/json"
	"io"

	"diogenes/internal/simtime"
)

// RankOutcome is one rank's pipeline outcome within a fleet analysis. The
// full Report stays in memory for aggregation but is excluded from the
// serialized fleet document; the summary fields below travel instead.
type RankOutcome struct {
	Rank   int     `json:"rank"`
	Report *Report `json:"-"`
	// Err is the final error message when the rank failed both attempts.
	Err string `json:"error,omitempty"`
	// Attempts is 1 for a clean first run, 2 when the rank was retried.
	Attempts int  `json:"attempts"`
	Retried  bool `json:"retried,omitempty"`
	// FromCache marks a first attempt served by the report cache.
	FromCache bool `json:"fromCache,omitempty"`

	// Summary fields filled from Report by FoldRankOutcome.
	ExecTime     simtime.Duration `json:"execTime,omitempty"`
	TotalBenefit simtime.Duration `json:"totalBenefit,omitempty"`
	Problems     int              `json:"problems,omitempty"`
	Duplicates   int              `json:"duplicateTransfers,omitempty"`
}

// Failed reports whether the rank produced no report. It keys on the
// error string, not the in-process Report pointer, so an outcome decoded
// from a serialized fleet document answers the same way.
func (o RankOutcome) Failed() bool { return o.Err != "" }

// FleetDuplicate is one cross-rank duplicate-transfer finding: the same
// payload digest moved between host and device on two or more ranks. The
// per-rank pipelines each flag their own repeats; this merges them into one
// fleet-level finding with the rank list.
type FleetDuplicate struct {
	Hash  string `json:"hash"`
	Func  string `json:"func"`
	Ranks []int  `json:"ranks"`
	// Records is the number of transfer records carrying this digest
	// across all analyzed ranks; Bytes is their total payload volume.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// FleetProblem aggregates one analysis problem group (same kind and label)
// across the ranks that reported it.
type FleetProblem struct {
	Kind    string           `json:"kind"`
	Label   string           `json:"label"`
	Ranks   []int            `json:"ranks"`
	Total   simtime.Duration `json:"total"`
	Min     simtime.Duration `json:"min"`
	Max     simtime.Duration `json:"max"`
	MinRank int              `json:"minRank"`
	MaxRank int              `json:"maxRank"`
}

// FleetSkewRank is one rank's collective-skew account (mirrors
// mpi.RankSkew without importing the package: ffm stays launch-agnostic).
type FleetSkewRank struct {
	Rank      int              `json:"rank"`
	Waited    simtime.Duration `json:"waited"`
	Charged   simtime.Duration `json:"charged"`
	Straggles int              `json:"straggles"`
}

// FleetBarrier is one skewed collective from the reference run's barrier
// ledger: when it happened, which rank arrived last, and how long every
// other rank stood waiting. Balanced barriers are not recorded, so a
// perfectly balanced world serializes without a barriers field.
type FleetBarrier struct {
	// Index is the barrier's ordinal among all collectives executed
	// (balanced ones included).
	Index int `json:"index"`
	// Arrive is the straggler's arrival — the moment the wait ended.
	Arrive simtime.Time `json:"arrive"`
	// Latency is the collective's own cost, paid by every rank after
	// Arrive.
	Latency simtime.Duration `json:"latency"`
	// Straggler is the last-arriving rank charged this barrier's wait.
	Straggler int `json:"straggler"`
	// Wait is the total wait across all ranks at this barrier.
	Wait simtime.Duration `json:"wait"`
	// RankWaits is each rank's wait, indexed by rank.
	RankWaits []simtime.Duration `json:"rankWaits"`
}

// FleetSkew is the whole-world collective-skew attribution: wait time is
// charged to the straggler rank that caused it.
type FleetSkew struct {
	// TotalWait is the time all ranks together spent blocked at barriers
	// behind slower ranks (collective latency excluded).
	TotalWait simtime.Duration `json:"totalWait"`
	// Straggler is the rank charged the most wait, or -1 when the world
	// is perfectly balanced.
	Straggler int             `json:"straggler"`
	PerRank   []FleetSkewRank `json:"perRank"`
	// Barriers is the per-collective ledger behind the per-rank totals:
	// one entry per skewed barrier, in execution order. Empty in a
	// balanced world.
	Barriers []FleetBarrier `json:"barriers,omitempty"`
}

// FleetReport is the cluster-wide analysis: every rank's pipeline outcome
// plus the cross-rank aggregates.
type FleetReport struct {
	App   string `json:"app"`
	Ranks int    `json:"ranks"`
	// Analyzed is the number of ranks that produced a report.
	Analyzed int `json:"analyzed"`
	// Partial marks a degraded report: one or more ranks failed both
	// attempts and are missing from the aggregates.
	Partial     bool          `json:"partial"`
	FailedRanks []int         `json:"failedRanks,omitempty"`
	PerRank     []RankOutcome `json:"perRank"`

	Duplicates []FleetDuplicate `json:"crossRankDuplicates"`
	// CrossRankDupBytes is the total payload volume of transfers whose
	// digest was seen on at least two ranks.
	CrossRankDupBytes int64          `json:"crossRankDupBytes"`
	Problems          []FleetProblem `json:"problems"`
	Skew              *FleetSkew     `json:"skew,omitempty"`
}

// WriteJSON exports the fleet report. The document contains no maps and no
// wall-clock values, so it is byte-identical for identical inputs
// regardless of worker count.
func (fr *FleetReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fr)
}
