package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// handleEvents streams a job's progress as Server-Sent Events:
//
//	GET /jobs/{id}/events
//
// Frames:
//
//	event: progress   data: the job View — sent immediately on connect,
//	                  then whenever the job's span trace changes and on a
//	                  periodic snapshot tick (fleet reduction counters
//	                  advance without creating spans), deduplicated so a
//	                  quiet job does not re-send identical views
//	: heartbeat       comment frames on the heartbeat interval, so
//	                  proxies and clients can tell a quiet stream from a
//	                  dead one
//	event: done       the terminal frame: the job's final View, counters
//	                  final (a fleet job's ranksDone equals ranksTotal).
//	                  The stream closes after it.
//
// A job already finished (including store-served) yields the terminal
// frame immediately. Progress derives from the same obs span trace and
// fleet reduction counters the poll endpoint reads — streaming adds a
// push path, not a second source of truth.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.Job(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no job %q", id)})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Change-driven wakeups from the job's own span trace; the snapshot
	// ticker covers progress the trace cannot signal (fleet counters).
	changed, cancel := j.obs.Trace().Watch()
	defer cancel()
	snapshots := time.NewTicker(s.opts.EventSnapshot)
	defer snapshots.Stop()
	heartbeats := time.NewTicker(s.opts.EventHeartbeat)
	defer heartbeats.Stop()

	var last []byte
	emit := func(event string) bool {
		data, err := json.Marshal(j.View())
		if err != nil {
			return false
		}
		if event == "progress" && bytes.Equal(data, last) {
			return true // nothing new; keep the connection quiet
		}
		last = data
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	if !emit("progress") {
		return
	}
	for {
		select {
		case <-j.Done():
			// Drain pending signals implicitly: the terminal View is the
			// final word on every counter.
			emit("done")
			return
		case <-changed:
			if !emit("progress") {
				return
			}
		case <-snapshots.C:
			if !emit("progress") {
				return
			}
		case <-heartbeats.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
