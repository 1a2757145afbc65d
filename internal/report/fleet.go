package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"diogenes/internal/ffm"
)

// rankList renders a rank slice compactly ("0 1 3").
func rankList(ranks []int) string {
	parts := make([]string, len(ranks))
	for i, r := range ranks {
		parts[i] = strconv.Itoa(r)
	}
	return strings.Join(parts, " ")
}

// FleetTable writes the cluster-wide fleet analysis: per-rank pipeline
// outcomes, the cross-rank duplicate-transfer findings, the per-problem
// benefit spread, and the collective-skew attribution. The CLI and the
// analysis service both render through this function, so a served fleet
// report is byte-identical to the terminal output for the same request.
func FleetTable(w io.Writer, fr *ffm.FleetReport) error {
	if _, err := fmt.Fprintf(w, "Diogenes Fleet Analysis — %s (%d ranks)\n", fr.App, fr.Ranks); err != nil {
		return err
	}

	if fr.Partial {
		fmt.Fprintf(w, "\nDEGRADED: %d/%d rank pipelines failed; aggregates cover the %d surviving ranks\n",
			len(fr.FailedRanks), fr.Ranks, fr.Analyzed)
		for _, r := range fr.FailedRanks {
			o := fr.PerRank[r]
			fmt.Fprintf(w, "  rank %d (%d attempts): %s\n", o.Rank, o.Attempts, o.Err)
		}
	}

	fmt.Fprintf(w, "\nPer-rank pipelines\n")
	fmt.Fprintf(w, "  %-5s %12s %12s %9s\n", "rank", "exec", "benefit", "problems")
	for _, o := range fr.PerRank {
		if o.Failed() {
			fmt.Fprintf(w, "  %-5d %12s %12s %9s  FAILED\n", o.Rank, "-", "-", "-")
			continue
		}
		note := ""
		if o.Retried {
			note = "  retried"
		} else if o.FromCache {
			note = "  cached"
		}
		fmt.Fprintf(w, "  %-5d %12s %12s %9d%s\n",
			o.Rank, seconds(o.ExecTime), seconds(o.TotalBenefit), o.Problems, note)
	}

	fmt.Fprintf(w, "\nCross-rank duplicate transfers\n")
	if len(fr.Duplicates) == 0 {
		fmt.Fprintf(w, "  none\n")
	} else {
		fmt.Fprintf(w, "  %-18s %-26s %9s %10s  %s\n", "hash", "func", "records", "bytes", "ranks")
		for _, d := range fr.Duplicates {
			fmt.Fprintf(w, "  %-18s %-26s %9d %10d  [%s]\n",
				d.Hash, d.Func, d.Records, d.Bytes, rankList(d.Ranks))
		}
		fmt.Fprintf(w, "  total duplicate volume across ranks: %d bytes\n", fr.CrossRankDupBytes)
	}

	fmt.Fprintf(w, "\nProblems across ranks (summed benefit)\n")
	if len(fr.Problems) == 0 {
		fmt.Fprintf(w, "  none\n")
	} else {
		fmt.Fprintf(w, "  %-44s %12s %22s %22s\n", "problem", "total", "min (rank)", "max (rank)")
		for _, p := range fr.Problems {
			label := fmt.Sprintf("%s: %s", p.Kind, p.Label)
			fmt.Fprintf(w, "  %-44s %12s %14s (%5d) %14s (%5d)\n",
				label, seconds(p.Total), seconds(p.Min), p.MinRank, seconds(p.Max), p.MaxRank)
		}
	}

	fmt.Fprintf(w, "\nCollective skew attribution\n")
	switch {
	case fr.Skew == nil:
		fmt.Fprintf(w, "  unavailable (no rank pipeline completed)\n")
	case fr.Skew.TotalWait == 0:
		fmt.Fprintf(w, "  balanced world: no rank waited at any barrier\n")
	default:
		fmt.Fprintf(w, "  total wait behind stragglers: %s (dominant straggler: rank %d)\n",
			seconds(fr.Skew.TotalWait), fr.Skew.Straggler)
		fmt.Fprintf(w, "  %-5s %12s %12s %10s\n", "rank", "waited", "charged", "straggles")
		for _, rs := range fr.Skew.PerRank {
			fmt.Fprintf(w, "  %-5d %12s %12s %10d\n", rs.Rank, seconds(rs.Waited), seconds(rs.Charged), rs.Straggles)
		}
	}
	return nil
}
