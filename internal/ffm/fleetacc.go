package ffm

import (
	"fmt"
	"sort"

	"diogenes/internal/hashstore"
	"diogenes/internal/trace"
)

// This file is the streaming half of the fleet analysis: instead of
// materializing every rank's full Report and aggregating at the end
// (O(ranks × report) peak memory), each rank's outcome is folded into a
// FleetPartial the moment the rank finishes, releasing the full report
// immediately; the folds of each contiguous rank batch merge into one
// partial, and AssembleFleet absorbs the batch partials in rank order.
// The merge is associative and keyed by rank range, never by completion
// order, so the assembled FleetReport is byte-identical at every worker
// count and batch size.

// FleetPartial is the cross-rank aggregation state for one contiguous
// range of ranks [Lo, Hi): per-rank outcome summaries (reports already
// released), the duplicate-transfer merge keyed by payload digest, and
// the per-problem benefit spread with min/max rank attribution.
//
// Dups deliberately keeps digests seen on only one rank: a digest that is
// single-rank inside this range may become cross-rank when an adjacent
// range carries it too. The single-rank leftovers are dropped only at
// assembly time.
type FleetPartial struct {
	Lo, Hi int
	// Analyzed counts ranks in the range that produced a report.
	Analyzed int
	Failed   []int
	// Outcomes holds the range's per-rank summaries in rank order. The
	// Report pointers are nil — folding strips them.
	Outcomes []RankOutcome
	Dups     []FleetDuplicate
	Problems []FleetProblem
	// skew is the lowest-ranked report's skew attribution: every rank's
	// reference run simulates the same world.
	skew *FleetSkew

	// Lookup indexes into Dups/Problems, built by FoldRankOutcome and
	// maintained incrementally so absorbing a partial costs O(absorbed),
	// not O(resident).
	dupIdx  map[string]int
	probIdx map[problemKey]int
}

type problemKey struct{ kind, label string }

// FoldRankOutcome folds one rank's outcome into a single-rank partial,
// filling the outcome's summary fields from its report (execution time,
// total benefit, problem count, per-rank duplicate transfers) and then
// releasing the report: the returned partial holds no reference to it, so
// the rank's full pipeline state is collectable the moment the fold
// returns. The per-record transfer scan keeps the historical filters
// (transfer class, valid digest) and first-appearance ordering, and the
// overview grouping keeps the historical (kind, label) keying and strict
// min/max tie rules, so merging folds reproduces the pre-streaming
// collect-then-aggregate output byte for byte.
func FoldRankOutcome(o RankOutcome) *FleetPartial {
	p := &FleetPartial{
		Lo: o.Rank, Hi: o.Rank + 1,
		dupIdx:  make(map[string]int),
		probIdx: make(map[problemKey]int),
	}
	rep := o.Report
	o.Report = nil
	if rep == nil {
		p.Failed = []int{o.Rank}
		p.Outcomes = []RankOutcome{o}
		return p
	}
	p.Analyzed = 1
	p.skew = rep.Skew()
	o.ExecTime = rep.UninstrumentedTime
	if rep.Analysis != nil {
		o.TotalBenefit = rep.Analysis.TotalBenefit()
		o.Problems = len(rep.Analysis.Graph.ProblematicNodes())
	}
	if rep.Trace != nil {
		for r := range rep.Trace.Records {
			rec := &rep.Trace.Records[r]
			if rec.Class != trace.ClassTransfer || !hashstore.ValidDigest(rec.Hash) {
				continue
			}
			if rec.Duplicate {
				o.Duplicates++
			}
			i, ok := p.dupIdx[rec.Hash]
			if !ok {
				i = len(p.Dups)
				p.dupIdx[rec.Hash] = i
				p.Dups = append(p.Dups, FleetDuplicate{Hash: rec.Hash, Func: rec.Func})
			}
			d := &p.Dups[i]
			if n := len(d.Ranks); n == 0 || d.Ranks[n-1] != o.Rank {
				d.Ranks = append(d.Ranks, o.Rank)
			}
			d.Records++
			d.Bytes += int64(rec.Bytes)
		}
	}
	if rep.Analysis != nil {
		for _, grp := range rep.Analysis.Overview {
			k := problemKey{grp.Kind.String(), grp.Label}
			i, ok := p.probIdx[k]
			if !ok {
				i = len(p.Problems)
				p.probIdx[k] = i
				p.Problems = append(p.Problems, FleetProblem{
					Kind: k.kind, Label: k.label,
					Min: grp.Benefit, Max: grp.Benefit,
					MinRank: o.Rank, MaxRank: o.Rank,
				})
			}
			fp := &p.Problems[i]
			fp.Ranks = append(fp.Ranks, o.Rank)
			fp.Total += grp.Benefit
			if grp.Benefit < fp.Min {
				fp.Min, fp.MinRank = grp.Benefit, o.Rank
			}
			if grp.Benefit > fp.Max {
				fp.Max, fp.MaxRank = grp.Benefit, o.Rank
			}
		}
	}
	p.Outcomes = []RankOutcome{o}
	return p
}

// Merge folds b into a — a must cover the rank range immediately below
// b's — and returns a. The merge is in place: a is extended, b must not
// be used afterwards. Because every combination rule is associative and
// ties resolve toward the lower rank range (Func from the first range
// that saw the digest, Min/Max ties keeping the earlier rank, the skew
// attribution from the lower range that has one), any merge
// tree over adjacent ranges yields the same partial as folding ranks
// 0..N-1 sequentially.
func Merge(a, b *FleetPartial) (*FleetPartial, error) {
	if a == nil {
		return b, nil
	}
	if b == nil {
		return a, nil
	}
	if a.Hi != b.Lo {
		return nil, fmt.Errorf("ffm: cannot merge fleet partials [%d,%d) and [%d,%d): ranges not adjacent", a.Lo, a.Hi, b.Lo, b.Hi)
	}
	a.absorb(b)
	return a, nil
}

// absorb extends p by q's state without range checking (Merge and
// AssembleFleet check adjacency first).
func (p *FleetPartial) absorb(q *FleetPartial) {
	p.Hi = q.Hi
	p.Analyzed += q.Analyzed
	if p.skew == nil {
		p.skew = q.skew
	}
	p.Failed = append(p.Failed, q.Failed...)
	p.Outcomes = append(p.Outcomes, q.Outcomes...)
	for _, d := range q.Dups {
		if i, ok := p.dupIdx[d.Hash]; ok {
			e := &p.Dups[i]
			// Ranges are disjoint, so q's rank list never repeats p's
			// trailing rank; plain concatenation keeps ascending order.
			e.Ranks = append(e.Ranks, d.Ranks...)
			e.Records += d.Records
			e.Bytes += d.Bytes
		} else {
			p.dupIdx[d.Hash] = len(p.Dups)
			p.Dups = append(p.Dups, d)
		}
	}
	for _, fp := range q.Problems {
		k := problemKey{fp.Kind, fp.Label}
		if i, ok := p.probIdx[k]; ok {
			e := &p.Problems[i]
			e.Ranks = append(e.Ranks, fp.Ranks...)
			e.Total += fp.Total
			// Strict comparisons keep the lower range's attribution on
			// ties, matching the ascending-rank iteration of the
			// collect-then-aggregate path.
			if fp.Min < e.Min {
				e.Min, e.MinRank = fp.Min, fp.MinRank
			}
			if fp.Max > e.Max {
				e.Max, e.MaxRank = fp.Max, fp.MaxRank
			}
		} else {
			p.probIdx[k] = len(p.Problems)
			p.Problems = append(p.Problems, fp)
		}
	}
}

// assemble builds the final fleet report from a fully merged partial:
// drop digests that never crossed a rank boundary, then apply the total-
// order sorts that make the document independent of merge shape.
func (p *FleetPartial) assemble(app string, ranks int) *FleetReport {
	fr := &FleetReport{App: app, Ranks: ranks, Analyzed: p.Analyzed, PerRank: p.Outcomes, Skew: p.skew}
	fr.FailedRanks = append(fr.FailedRanks, p.Failed...)
	sort.Ints(fr.FailedRanks)
	fr.Partial = len(fr.FailedRanks) > 0
	var dups []FleetDuplicate
	for i := range p.Dups {
		if len(p.Dups[i].Ranks) < 2 {
			continue
		}
		dups = append(dups, p.Dups[i])
		fr.CrossRankDupBytes += p.Dups[i].Bytes
	}
	sort.SliceStable(dups, func(i, j int) bool {
		if dups[i].Bytes != dups[j].Bytes {
			return dups[i].Bytes > dups[j].Bytes
		}
		return dups[i].Hash < dups[j].Hash
	})
	fr.Duplicates = dups
	probs := make([]FleetProblem, 0, len(p.Problems))
	probs = append(probs, p.Problems...)
	sort.SliceStable(probs, func(i, j int) bool {
		if probs[i].Total != probs[j].Total {
			return probs[i].Total > probs[j].Total
		}
		if probs[i].Label != probs[j].Label {
			return probs[i].Label < probs[j].Label
		}
		return probs[i].Kind < probs[j].Kind
	})
	fr.Problems = probs
	return fr
}

// AssembleFleet completes a fleet reduction: it absorbs the batch
// partials left to right, calling merged after each absorb, and assembles
// the fleet report. parts must tile [0, ranks) in rank order; a nil part,
// an overlap, a gap or coverage short of ranks is refused with an error
// naming the first rank not covered, so a canceled or faulted reduction
// never yields a silently truncated report. Like Merge, it extends the
// first part in place: parts must not be used afterwards.
func AssembleFleet(app string, ranks int, parts []*FleetPartial, merged func()) (*FleetReport, error) {
	var root *FleetPartial
	next := 0
	for i, p := range parts {
		switch {
		case p == nil:
			return nil, fmt.Errorf("ffm: fleet reduction incomplete: part %d is missing, rank %d not covered", i, next)
		case p.Lo > next:
			return nil, fmt.Errorf("ffm: fleet reduction incomplete: rank %d not covered (next part spans [%d,%d))", next, p.Lo, p.Hi)
		case p.Lo < next:
			return nil, fmt.Errorf("ffm: fleet partial [%d,%d) overlaps ranks already covered up to %d", p.Lo, p.Hi, next)
		}
		if root == nil {
			root = p
		} else {
			root.absorb(p)
			merged()
		}
		next = p.Hi
	}
	if root == nil || next < ranks {
		return nil, fmt.Errorf("ffm: fleet reduction incomplete: rank %d of %d not covered", next, ranks)
	}
	if next > ranks {
		return nil, fmt.Errorf("ffm: fleet partials cover [0,%d), beyond the %d-rank world", next, ranks)
	}
	return root.assemble(app, ranks), nil
}

// FleetProgress is a live snapshot of one fleet reduction: how many ranks
// have folded and how many batch partials have been absorbed. The serving
// layer streams it on fleet job views so a 1024-rank job reports per-rank
// progress instead of silence until the end.
type FleetProgress struct {
	RanksDone  int `json:"ranksDone"`
	RanksTotal int `json:"ranksTotal"`
	Merges     int `json:"merges"`
}
