package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"diogenes/internal/buildinfo"
	"diogenes/internal/ffm"
	"diogenes/internal/timeline"
)

// modelForDoc reconstructs the timeline model from a completed job's
// result document. Run and replay documents carry the full report (trace,
// device ops, stage ledger); fleet documents carry the per-rank outcomes
// and the barrier-skew ledger. The suite kinds tabulate across apps and
// have no single timeline.
func modelForDoc(doc *ResultDoc) (*timeline.Model, error) {
	switch doc.Kind {
	case KindRun, KindReplay:
		rep, err := ffm.ReadReportJSON(bytes.NewReader(doc.JSON))
		if err != nil {
			return nil, err
		}
		return timeline.FromReport(doc.Kind, rep), nil
	case KindFleet:
		var fr ffm.FleetReport
		if err := json.Unmarshal(doc.JSON, &fr); err != nil {
			return nil, fmt.Errorf("serve: corrupt fleet document: %w", err)
		}
		return timeline.FromFleet(&fr), nil
	default:
		return nil, fmt.Errorf("kind %q has no timeline (run, replay and fleet jobs do)", doc.Kind)
	}
}

// timelineModel resolves a request's job to its timeline model, writing
// the error response itself when there is none. The served model is
// stamped with the daemon's build identity so downloads are
// self-describing.
func (s *Server) timelineModel(w http.ResponseWriter, r *http.Request) *timeline.Model {
	id := r.PathValue("id")
	j := s.Job(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no job %q", id)})
		return nil
	}
	data := j.Result()
	if data == nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job %s is %s, not done", j.ID, j.State())})
		return nil
	}
	doc, err := decodeResult(data)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return nil
	}
	m, err := modelForDoc(doc)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return nil
	}
	m.Meta.Version = buildinfo.Version()
	return m
}

// handleTimeline serves the self-contained timeline explorer page: the
// embedded HTML renderer with the job's model inlined. Zero external
// requests — the page works from a saved file as well as from the daemon.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	m := s.timelineModel(w, r)
	if m == nil {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := m.WriteHTML(w); err != nil {
		// Headers are gone; all we can do is abort the stream.
		return
	}
}

// handleTimelineJSON serves the raw model — the machine-readable form of
// the same document the HTML view renders, for other tools (§4).
func (s *Server) handleTimelineJSON(w http.ResponseWriter, r *http.Request) {
	m := s.timelineModel(w, r)
	if m == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = m.WriteJSON(w)
}
