package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"diogenes/internal/buildinfo"
	"diogenes/internal/ffm"
	"diogenes/internal/timeline"
	"diogenes/internal/trace"
)

// Timeline renders the timeline explorer offline: the exact page `diogenes
// serve` serves at /jobs/{id}/timeline, built from a document on disk. The
// input kind is sniffed from the document itself — a full report (`run
// -report`), a fleet report (`fleet -json`), or a bare annotated trace
// (`run -records`) all work; the bare trace just has no GPU rows or stage
// ledger to show.
func Timeline(w io.Writer, args []string) error {
	path, args := takeName(args)
	fs := newFlagSet("timeline")
	outPath := fs.String("o", "", "write the explorer HTML here (default: stdout)")
	modelPath := fs.String("model", "", "also export the raw timeline model JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("timeline: input document expected (a 'run -report', 'fleet -json' or 'run -records' export)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := modelFromDocument(data)
	if err != nil {
		return fmt.Errorf("timeline: %s: %w", path, err)
	}
	m.Meta.Version = buildinfo.Version()
	if *modelPath != "" {
		if err := writeFile(*modelPath, m.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline model exported to %s\n", *modelPath)
	}
	if *outPath == "" {
		return m.WriteHTML(w)
	}
	if err := writeFile(*outPath, m.WriteHTML); err != nil {
		return err
	}
	fmt.Fprintf(w, "timeline explorer exported to %s\n", *outPath)
	return nil
}

// modelFromDocument builds the timeline model from any of the tool's
// on-disk documents, distinguished by their top-level keys: a fleet report
// always has "crossRankDuplicates", a full report "uninstrumentedTime",
// and a bare trace its "records" and "stage".
func modelFromDocument(data []byte) (*timeline.Model, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("not a JSON document: %w", err)
	}
	switch {
	case probe["crossRankDuplicates"] != nil:
		var fr ffm.FleetReport
		if err := json.Unmarshal(data, &fr); err != nil {
			return nil, fmt.Errorf("corrupt fleet report: %w", err)
		}
		return timeline.FromFleet(&fr), nil
	case probe["uninstrumentedTime"] != nil:
		rep, err := ffm.ReadReportJSON(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return timeline.FromReport("run", rep), nil
	case probe["records"] != nil || probe["stage"] != nil:
		run, err := trace.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return timeline.FromTrace(run, nil), nil
	default:
		return nil, fmt.Errorf("unrecognized document (want a 'run -report', 'fleet -json' or 'run -records' export)")
	}
}
