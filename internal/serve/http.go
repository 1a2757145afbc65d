package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"diogenes/internal/ledger"
)

// maxRequestBody bounds a submission document; analysis requests are a
// few hundred bytes, so anything near this is garbage.
const maxRequestBody = 1 << 20

// buildMux wires the API:
//
//	POST   /jobs                    submit an analysis job
//	GET    /jobs                    list retained jobs
//	GET    /jobs/{id}               job status + span-derived progress
//	DELETE /jobs/{id}               cancel a job
//	GET    /jobs/{id}/events        SSE stream of job progress, ending in
//	                                a terminal frame
//	GET    /jobs/{id}/report        completed report (?format=json|text|doc;
//	                                ?proof=1 wraps the stored document in a
//	                                ledger inclusion-proof envelope)
//	GET    /jobs/{id}/timeline      served timeline explorer (self-contained HTML)
//	GET    /jobs/{id}/timeline.json the raw timeline model
//	GET    /ledger/root             the provenance ledger's head commitment
//	GET    /healthz                 liveness + queue occupancy + ledger head
//	GET    /metrics                 the server's obs registry (?format=prom
//	                                or a text/plain Accept selects Prometheus
//	                                text exposition)
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /jobs/{id}/timeline.json", s.handleTimelineJSON)
	mux.HandleFunc("GET /ledger/root", s.handleLedgerRoot)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.obs.Metrics().Handler())
	s.mux = mux
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// maxRetryAfterSeconds caps the backoff hint — past a few minutes a
// bigger number only makes clients give up, not back off better.
const maxRetryAfterSeconds = 300

// retryAfterSeconds renders the backoff hint for 429/503 responses,
// derived from how long the current backlog will actually take to drain:
// queue depth times the observed mean job duration, divided across the
// worker set. Before any job has completed it falls back to the
// configured constant. The result is clamped to [1, maxRetryAfterSeconds]
// — in particular it is never 0, which RFC 9110 permits but which turns a
// backoff hint into an immediate-retry invitation.
func (s *Server) retryAfterSeconds() int {
	return retryAfterHint(s.queue.Depth(), s.queue.Workers(), s.meanJobNanos(), s.opts.RetryAfter)
}

// retryAfterHint is the pure computation behind retryAfterSeconds.
// meanNanos 0 (no history yet) selects the fallback duration.
func retryAfterHint(depth, workers int, meanNanos int64, fallback time.Duration) int {
	if workers < 1 {
		workers = 1
	}
	est := fallback
	if meanNanos > 0 {
		// depth+1 accounts for the request being turned away: the queue
		// must drain one slot before a retry can be accepted.
		est = time.Duration(depth+1) * time.Duration(meanNanos) / time.Duration(workers)
	}
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	j, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrShuttingDown):
		// Compute the hint exactly once: the queue depth it reads is
		// live, so computing it again for the body could disagree with
		// the Retry-After header already sent.
		ra := s.retryAfterFn()
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), RetryAfterSeconds: ra})
	case errors.Is(err, ErrQueueFull):
		// The backpressure contract: a full backlog is a visible 429
		// with a retry hint, never silent unbounded buffering. Header
		// and body carry the same single computation (see above).
		ra := s.retryAfterFn()
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), RetryAfterSeconds: ra})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		code := http.StatusAccepted
		if j.State() == StateDone {
			code = http.StatusOK // answered from the persistent store
		}
		writeJSON(w, code, j.View())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.Job(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Cancel returns the job handle; rendering that handle (instead of
	// looking the ID up again) is what makes this safe against
	// concurrent retention shedding — the regression was a nil deref
	// when manager.add evicted the finished job between Cancel and a
	// second s.Job(id) lookup.
	j := s.Cancel(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no job %q", id)})
		return
	}
	if h := s.hookCanceled; h != nil {
		h(id)
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleReport serves a done job's result document. ?format=doc is a
// pass-through: the stored bytes go out verbatim, never decoded. A
// document this process rendered is valid JSON because json.MarshalIndent
// made it; one loaded from the persistent store is checked with json.Valid
// first, so a corrupt file is a 500 and never a 200 with torn bytes. The
// json and text formats and ?proof=1 decode the document.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.Job(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no job %q", id)})
		return
	}
	data := j.Result()
	if data == nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job %s is %s, not done", j.ID, j.State())})
		return
	}
	q := r.URL.Query()
	format, proof := q.Get("format"), q.Get("proof") != ""
	var doc *ResultDoc
	var err error
	if format == "doc" && !proof {
		if j.isFromStore() && !json.Valid(data) {
			err = errCorruptResult
		}
	} else {
		doc, err = decodeResult(data)
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	s.setLedgerHeaders(w, j)
	if proof {
		s.writeProofEnvelope(w, j)
		return
	}
	switch format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc.JSON)
	case "doc":
		// The exact stored document bytes, unformatted: what the store
		// persisted, what the ledger digested, what a proof's digest field
		// must equal the sha256 of. Any re-encoding (indentation, field
		// ordering) would break digest comparison, so these bytes pass
		// through verbatim.
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case "text", "txt", "md", "markdown":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(doc.Text))
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown format %q (want json, text or doc)", format)})
	}
}

// setLedgerHeaders stamps a report response with its provenance
// coordinates when the report is ledgered: the entry's sequence number
// and the ledger's current head commitment. Informational — the real
// verification path is the ?proof=1 envelope.
func (s *Server) setLedgerHeaders(w http.ResponseWriter, j *Job) {
	if s.ledger == nil || j.storeKey == "" {
		return
	}
	seq, ok := s.ledger.SeqFor(j.storeKey)
	if !ok {
		return
	}
	w.Header().Set("X-Diogenes-Ledger-Seq", strconv.FormatUint(seq, 10))
	w.Header().Set("X-Diogenes-Ledger-Chain", s.ledger.Head().Chain)
}

// proofEnvelope is the ?proof=1 response: everything a client needs to
// verify a served report statelessly. The client fetches the raw
// document bytes (?format=doc), checks sha256(bytes) == proof.digest,
// and runs ledger.Verify(proof, head.chain) — or against a head pinned
// earlier from GET /ledger/root.
type proofEnvelope struct {
	Key   string        `json:"key"`
	Proof *ledger.Proof `json:"proof"`
	Head  ledger.Head   `json:"head"`
}

func (s *Server) writeProofEnvelope(w http.ResponseWriter, j *Job) {
	if s.ledger == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no provenance ledger (store disabled, or another instance holds the writer lock)"})
		return
	}
	if j.storeKey == "" {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("job %s is not content-addressed; its report is not ledgered", j.ID)})
		return
	}
	seq, ok := s.ledger.SeqFor(j.storeKey)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("report for job %s is not in the provenance ledger", j.ID)})
		return
	}
	p, head, err := s.ledger.Prove(seq)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, proofEnvelope{Key: j.storeKey, Proof: p, Head: head})
}

// handleLedgerRoot publishes the ledger's head commitment. Pinning this
// value externally is what upgrades the chain's tamper evidence from
// "interior edits" to "any edit including tail removal".
func (s *Server) handleLedgerRoot(w http.ResponseWriter, _ *http.Request) {
	if s.ledger == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no provenance ledger (store disabled, or another instance holds the writer lock)"})
		return
	}
	writeJSON(w, http.StatusOK, s.ledger.Head())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{
		"status":        "ok",
		"accepting":     s.accepting.Load(),
		"queueDepth":    s.queue.Depth(),
		"queueCapacity": s.queue.Capacity(),
		"jobs":          len(s.Jobs()),
	}
	if s.ledger != nil {
		// The ledger head rides along so an operator's liveness probe also
		// watches provenance: a growing "unsealed" depth means appends are
		// outrunning seals (or the flush timer is misconfigured).
		resp["ledger"] = s.ledger.Head()
	}
	writeJSON(w, http.StatusOK, resp)
}
