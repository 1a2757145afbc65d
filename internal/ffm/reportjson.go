package ffm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"diogenes/internal/gpu"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// jsonReport is the serialized form of a full pipeline Report: every
// collected artifact — baseline, annotated trace, device-operation log,
// stage costs and the stage-5 analysis — in one deterministic document.
// The determinism harness compares serial and parallel pipeline executions
// byte-for-byte on this encoding, so it must contain no map iteration
// order, pointers, or wall-clock values (encoding/json sorts map keys,
// which covers the baseline's per-function sync counts).
type jsonReport struct {
	App                string           `json:"app"`
	UninstrumentedTime simtime.Duration `json:"uninstrumentedTime"`
	Stage1Time         simtime.Duration `json:"stage1Time"`
	Stage2Time         simtime.Duration `json:"stage2Time"`
	Stage3Time         simtime.Duration `json:"stage3Time"`
	Stage4Time         simtime.Duration `json:"stage4Time"`
	Stage1Overhead     simtime.Duration `json:"stage1Overhead"`
	Stage2Overhead     simtime.Duration `json:"stage2Overhead"`
	Stage3Overhead     simtime.Duration `json:"stage3Overhead"`
	Stage4Overhead     simtime.Duration `json:"stage4Overhead"`
	CollectionCost     simtime.Duration `json:"collectionCost"`
	OverheadMultiple   float64          `json:"overheadMultiple"`
	Baseline           *BaselineResult  `json:"baseline,omitempty"`
	Trace              json.RawMessage  `json:"trace,omitempty"`
	DeviceOps          []*gpu.Op        `json:"deviceOps,omitempty"`
	Analysis           json.RawMessage  `json:"analysis,omitempty"`
}

// WriteJSON exports the complete report in the tool's JSON format: its
// one compact encoding (MarshalJSON), indented once, plus a trailing
// newline. The encoding is deterministic: two Reports produced by
// identical pipelines — serial or parallel, in any stage interleaving —
// serialize to identical bytes.
func (r *Report) WriteJSON(w io.Writer) error {
	compact, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	return trace.WriteIndented(w, compact)
}

// MarshalJSON is the report's one encoding, compact. The trace and the
// analysis are encoded compact too and spliced in as raw sections, so a
// report is indented at most once, by whoever writes the finished
// document (WriteJSON, or the server's result document around it).
func (r *Report) MarshalJSON() ([]byte, error) {
	doc := jsonReport{
		App:                r.App,
		UninstrumentedTime: r.UninstrumentedTime,
		Stage1Time:         r.Stage1Time,
		Stage2Time:         r.Stage2Time,
		Stage3Time:         r.Stage3Time,
		Stage4Time:         r.Stage4Time,
		Stage1Overhead:     r.Stage1Overhead,
		Stage2Overhead:     r.Stage2Overhead,
		Stage3Overhead:     r.Stage3Overhead,
		Stage4Overhead:     r.Stage4Overhead,
		CollectionCost:     r.CollectionCost(),
		OverheadMultiple:   r.OverheadMultiple(),
		Baseline:           r.Baseline,
		DeviceOps:          r.DeviceOps,
	}
	var err error
	if r.Trace != nil {
		if doc.Trace, err = r.Trace.MarshalJSON(); err != nil {
			return nil, err
		}
	}
	if r.Analysis != nil {
		if doc.Analysis, err = r.Analysis.MarshalJSON(); err != nil {
			return nil, err
		}
	}
	return json.Marshal(&doc)
}

// ReadReportJSON parses a report document written by WriteJSON back into a
// Report: the identity, stage times and overheads, baseline, annotated
// trace (validated through the trace interchange reader) and device
// operation log — everything a renderer needs to reconstruct the timeline
// model. The stage-5 Analysis is not reconstructed (its in-memory form is
// a graph, not a document); Analysis stays nil on the returned report.
func ReadReportJSON(r io.Reader) (*Report, error) {
	var doc jsonReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("ffm: decoding report: %w", err)
	}
	rep := &Report{
		App:                doc.App,
		UninstrumentedTime: doc.UninstrumentedTime,
		Stage1Time:         doc.Stage1Time,
		Stage2Time:         doc.Stage2Time,
		Stage3Time:         doc.Stage3Time,
		Stage4Time:         doc.Stage4Time,
		Stage1Overhead:     doc.Stage1Overhead,
		Stage2Overhead:     doc.Stage2Overhead,
		Stage3Overhead:     doc.Stage3Overhead,
		Stage4Overhead:     doc.Stage4Overhead,
		Baseline:           doc.Baseline,
		DeviceOps:          doc.DeviceOps,
	}
	if len(doc.Trace) > 0 {
		run, err := trace.ReadJSON(bytes.NewReader(doc.Trace))
		if err != nil {
			return nil, fmt.Errorf("ffm: report trace: %w", err)
		}
		rep.Trace = run
	}
	return rep, nil
}
