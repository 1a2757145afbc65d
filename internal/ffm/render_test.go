package ffm

import (
	"bytes"
	"encoding/json"
	"testing"

	"diogenes/internal/apps"
	"diogenes/internal/trace"
)

// legacyRun is trace.Run without its methods: encoding it reproduces the
// field-by-field encoding the run had before it gained MarshalJSON.
type legacyRun trace.Run

// encodeIndented is the reference writer: a json.Encoder with two-space
// indentation, as every document writer used before rendering went
// through one compact encoding.
func encodeIndented(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyTraceJSON, legacyAnalysisJSON and legacyReportJSON are the nested
// reference path: the trace and the analysis each encoded indented, then
// spliced as raw sections into the indented outer document.
func legacyTraceJSON(t testing.TB, r *trace.Run) []byte {
	stamped := legacyRun(*r)
	stamped.Format = trace.FormatVersion
	return encodeIndented(t, &stamped)
}

func legacyAnalysisJSON(t testing.TB, a *Analysis) []byte {
	return encodeIndented(t, jsonAnalysis{
		App:          a.App,
		ExecTime:     a.ExecTime,
		TotalBenefit: a.TotalBenefit(),
		Overview:     a.exportGroups(a.Overview, true),
		SinglePoints: a.exportGroups(a.SinglePoints, false),
		Savings:      a.SavingsByFunc(),
	})
}

func legacyReportJSON(t testing.TB, r *Report) []byte {
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
		Trace:              legacyTraceJSON(t, r.Trace),
		Analysis:           legacyAnalysisJSON(t, r.Analysis),
	}
	return encodeIndented(t, &doc)
}

// TestRenderMatchesNestedEncoder pins the one-compact-encoding writers to
// the bytes of the nested encoder they replaced, on three modelled
// applications. cuibm's call stacks carry C++ template names, so its
// trace exercises HTML escaping of '<' and '>'.
func TestRenderMatchesNestedEncoder(t *testing.T) {
	for _, tc := range []struct {
		app   string
		scale float64
	}{
		{"rodinia_gaussian", 0.1},
		{"amg", 0.25},
		{"cuibm", 0.05},
	} {
		t.Run(tc.app, func(t *testing.T) {
			spec := apps.Must(tc.app)
			cfg := DefaultConfig()
			cfg.Factory = spec.Factory()
			rep, err := Run(spec.New(tc.scale, apps.Original), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checks := []struct {
				name  string
				write func(*bytes.Buffer) error
				want  []byte
			}{
				{"Run.WriteJSON", func(b *bytes.Buffer) error { return rep.Trace.WriteJSON(b) }, legacyTraceJSON(t, rep.Trace)},
				{"Analysis.WriteJSON", func(b *bytes.Buffer) error { return rep.Analysis.WriteJSON(b) }, legacyAnalysisJSON(t, rep.Analysis)},
				{"Report.WriteJSON", func(b *bytes.Buffer) error { return rep.WriteJSON(b) }, legacyReportJSON(t, rep)},
			}
			for _, c := range checks {
				var got bytes.Buffer
				if err := c.write(&got); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if !bytes.Equal(got.Bytes(), c.want) {
					t.Errorf("%s: %d bytes differ from the nested encoder's %d bytes", c.name, got.Len(), len(c.want))
				}
			}
		})
	}
}
