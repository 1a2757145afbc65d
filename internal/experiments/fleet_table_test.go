package experiments_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"diogenes/internal/apps"
	"diogenes/internal/experiments"
	"diogenes/internal/mpi"
	"diogenes/internal/report"
)

// TestFleetTableAllRanksFailed renders a launch in which every rank
// pipeline fails: the report has no skew attribution, and the table says
// it is missing because no rank pipeline completed.
func TestFleetTableAllRanksFailed(t *testing.T) {
	spec := apps.Must("amg")
	mcfg := mpi.Config{Ranks: 2, BarrierLatency: spec.MPI.BarrierLatency, Factory: spec.Factory()}
	eng := experiments.NewEngine(1)
	eng.FleetBackoff = time.Nanosecond
	fr, err := eng.FleetOver("amg", func(observed int) mpi.RankProgram {
		return experiments.NewFaultyProg(spec.MPI.Program(0.02, apps.Original), observed)
	}, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Analyzed != 0 || fr.Skew != nil {
		t.Fatalf("analyzed=%d skew=%v, want every rank failed and no skew", fr.Analyzed, fr.Skew)
	}
	var buf bytes.Buffer
	if err := report.FleetTable(&buf, fr); err != nil {
		t.Fatal(err)
	}
	if want := "unavailable (no rank pipeline completed)"; !strings.Contains(buf.String(), want) {
		t.Fatalf("fleet table missing %q\n%s", want, buf.String())
	}
}
