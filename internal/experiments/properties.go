// Property-based invariant harness over the generative workload families.
//
// Instead of pinning a handful of hand-modelled applications to golden
// files, the harness draws hundreds of seeded scenarios from each family in
// internal/apps and checks invariants that must hold for *every* program
// the measurement pipeline can observe:
//
//  1. Determinism — running the full FFM pipeline twice on the same
//     scenario produces byte-identical report JSON.
//  2. Benefit bound — the analysis never promises more benefit than the
//     time it measured: 0 ≤ TotalBenefit ≤ Σ recorded call durations plus
//     first-use spans.
//  3. Replay fidelity — replaying the scenario's own captured trace
//     reproduces its analysis JSON byte for byte.
//
// A fourth invariant (an autofix-patched variant realizes non-negative
// benefit and never runs slower than its baseline) lives in the external
// test package, because autofix imports experiments.
package experiments

import (
	"bytes"
	"fmt"

	"diogenes/internal/ffm"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// Scenario names one seeded draw from a generative family.
type Scenario struct {
	Family string
	Seed   uint64
	Steps  int
}

func (s Scenario) String() string {
	return fmt.Sprintf("%s/seed=%d/steps=%d", s.Family, s.Seed, s.Steps)
}

// PropertyError reports which invariant a scenario violated.
type PropertyError struct {
	Scenario  Scenario
	Invariant string
	Detail    string
}

func (e *PropertyError) Error() string {
	return fmt.Sprintf("property %q violated by %s: %s", e.Invariant, e.Scenario, e.Detail)
}

func (s Scenario) fail(invariant, format string, args ...any) error {
	return &PropertyError{Scenario: s, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// runScenario executes the full FFM pipeline on one fresh instance of the
// scenario's application.
func (e *Engine) runScenario(s Scenario) (*ffm.Report, error) {
	rep, err := e.RunFamily(s.Family, s.Seed, s.Steps)
	if err != nil {
		return nil, fmt.Errorf("%s: pipeline: %w", s, err)
	}
	return rep, nil
}

// CheckInvariants runs a scenario through the engine's measurement
// pipeline and verifies the determinism, benefit-bound, and
// replay-fidelity invariants. It returns the first run's report so callers
// can stack further checks (the autofix invariant, distribution
// statistics) on top.
func (e *Engine) CheckInvariants(s Scenario) (*ffm.Report, error) {
	rep, err := e.runScenario(s)
	if err != nil {
		return nil, err
	}

	// Invariant 1: the pipeline is a pure function of (scenario, config).
	again, err := e.runScenario(s)
	if err != nil {
		return nil, err
	}
	first, err := marshalReport(rep)
	if err != nil {
		return nil, err
	}
	second, err := marshalReport(again)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(first, second) {
		return nil, s.fail("determinism",
			"two identical runs serialized to %d vs %d bytes", len(first), len(second))
	}

	// Invariant 2: expected benefit is grounded in measured time. Figure
	// 5's evaluation claims at most the wait pool of an unnecessary
	// synchronization, the CPU launch time of an unnecessary transfer, and
	// the (unclamped, per the paper) time-to-first-use of a misplaced
	// synchronization — so the sum can never exceed the total recorded
	// call time plus the recorded first-use spans.
	benefit := rep.Analysis.TotalBenefit()
	if benefit < 0 {
		return nil, s.fail("benefit-bound", "negative total benefit %v", benefit)
	}
	if ceiling := benefitCeiling(rep.Trace); benefit > ceiling {
		return nil, s.fail("benefit-bound",
			"total benefit %v exceeds measured ceiling %v (sync wait %v)",
			benefit, ceiling, rep.Trace.TotalSyncWait())
	}

	// Invariant 3: the captured trace is a faithful stand-in for the app.
	var doc bytes.Buffer
	if err := rep.Trace.WriteJSON(&doc); err != nil {
		return nil, fmt.Errorf("%s: trace export: %w", s, err)
	}
	captured, err := trace.ReadJSON(&doc)
	if err != nil {
		return nil, fmt.Errorf("%s: trace import: %w", s, err)
	}
	replayed, err := e.Replay(captured)
	if err != nil {
		return nil, fmt.Errorf("%s: replay pipeline: %w", s, err)
	}
	origAnalysis, err := marshalAnalysis(rep)
	if err != nil {
		return nil, err
	}
	replayAnalysis, err := marshalAnalysis(replayed)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(origAnalysis, replayAnalysis) {
		return nil, s.fail("replay-fidelity",
			"replayed analysis differs from original (%d vs %d bytes):\n%s",
			len(origAnalysis), len(replayAnalysis), firstDiff(origAnalysis, replayAnalysis))
	}

	return rep, nil
}

// benefitCeiling is the hard upper bound any honest benefit estimate must
// respect: every recorded call's full duration (which contains its sync
// wait) plus every recorded first-use span. No fix can recover time the
// measurement never attributed to a recorded operation.
func benefitCeiling(run *trace.Run) simtime.Duration {
	var total simtime.Duration
	for i := range run.Records {
		rec := &run.Records[i]
		total += rec.Duration() + rec.FirstUse
	}
	return total
}

func marshalReport(rep *ffm.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func marshalAnalysis(rep *ffm.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := rep.Analysis.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// firstDiff renders the first line on which two renderings diverge.
func firstDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("line %d:\noriginal: %s\nreplay:   %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(w), len(g))
}
