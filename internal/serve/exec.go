package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"diogenes/internal/autofix"
	"diogenes/internal/experiments"
	"diogenes/internal/report"
	"diogenes/internal/trace"
)

// ResultDoc is a completed job's persisted document: the machine-readable
// payload plus the text rendering byte-identical to the CLI's output for
// the same request. Both are produced at completion time so a stored
// document can be served in either format without re-materializing any
// pipeline state. The document is rendered once: runJob fills JSON with
// the payload's compact encoding and indents the whole document in one
// json.MarshalIndent, and those bytes are what the store persists, the
// ledger digests and ?format=doc serves verbatim.
type ResultDoc struct {
	Kind  string   `json:"kind"`
	App   string   `json:"app,omitempty"`
	Apps  []string `json:"apps,omitempty"`
	Ranks int      `json:"ranks,omitempty"`
	Scale float64  `json:"scale"`
	// JSON is the kind-specific payload: the full ffm report document for
	// "run", the row sets for the table kinds.
	JSON json.RawMessage `json:"json,omitempty"`
	// Text is the human rendering: Markdown for "run" (the CLI's -md
	// export), the terminal table text for the suite kinds.
	Text string `json:"text"`
}

// taskFn wraps one job for the queue: state transitions, per-job context
// cancellation and timeout, persistence, and terminal accounting. The
// returned function never reports an error to the queue — a job's outcome
// lives on the job itself.
func (s *Server) taskFn(j *Job, eng *experiments.Engine) func(context.Context) error {
	return func(context.Context) error {
		if !j.setRunning() {
			return nil // canceled while queued; already terminal
		}
		if h := s.hookRunning; h != nil {
			h(j)
		}
		ctx := j.ctx
		if j.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, j.timeout)
			defer cancel()
		}
		type outcome struct {
			doc     []byte
			persist bool
			err     error
		}
		started := time.Now()
		ch := make(chan outcome, 1)
		go func() {
			doc, persist, err := s.runJob(ctx, eng, j.Req)
			ch <- outcome{doc, persist, err}
		}()
		select {
		case <-ctx.Done():
			// Canceled or timed out. The pipeline goroutine finishes on
			// its own (the simulated runs are short) and its result is
			// discarded — never persisted, never visible.
			msg := "job canceled"
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				msg = fmt.Sprintf("job timed out after %s", j.timeout)
			}
			if j.finish(StateCanceled, msg, nil) {
				s.mCanceled.Inc()
			}
		case o := <-ch:
			s.noteJobDuration(time.Since(started))
			if o.err != nil {
				if j.finish(StateFailed, o.err.Error(), nil) {
					s.mFailed.Inc()
				}
				return nil
			}
			// Persist before announcing completion so a graceful
			// shutdown that drains this job also flushes its report.
			// Degraded documents (a partial fleet report) are served but
			// never stored — a later identical request must re-run and
			// get another chance at a complete answer.
			if o.persist && j.storeKey != "" && s.store != nil {
				if err := s.store.Put(j.storeKey, o.doc); err != nil {
					s.mStorePutErr.Inc()
				}
			}
			if j.finish(StateDone, "", o.doc) {
				s.mCompleted.Inc()
			}
		}
		return nil
	}
}

// runJob executes the request on the job's engine and renders its result
// document. persist reports whether the document may enter the persistent
// store; a degraded result (partial fleet report) is served but not
// stored, so a later identical request re-runs instead of replaying the
// degradation. ctx is the job's cancellation context; the fleet kind
// honors it mid-run (canceled retries release their pool workers
// immediately), the short-lived kinds finish and have their result
// discarded by the caller.
func (s *Server) runJob(ctx context.Context, eng *experiments.Engine, req Request) (data []byte, persist bool, err error) {
	doc := ResultDoc{Kind: req.Kind, App: req.App, Apps: req.Apps, Ranks: req.Ranks, Scale: req.Scale}
	persist = true
	var text bytes.Buffer
	switch req.Kind {
	case KindRun:
		rep, err := eng.RunApp(req.App, req.Scale)
		if err != nil {
			return nil, false, err
		}
		if doc.JSON, err = rep.MarshalJSON(); err != nil {
			return nil, false, err
		}
		if err := report.WriteMarkdown(&text, rep); err != nil {
			return nil, false, err
		}
	case KindReplay:
		raw := []byte(req.Trace)
		if req.TraceKey != "" {
			stored, err := s.traceFromStore(req.TraceKey)
			if err != nil {
				return nil, false, err
			}
			raw = stored
		}
		run, err := trace.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return nil, false, fmt.Errorf("serve: replay trace: %w", err)
		}
		rep, err := eng.Replay(run)
		if err != nil {
			return nil, false, err
		}
		doc.App = rep.App
		persist = false // replay results are request-shaped, not cacheable
		if doc.JSON, err = rep.MarshalJSON(); err != nil {
			return nil, false, err
		}
		if err := report.WriteMarkdown(&text, rep); err != nil {
			return nil, false, err
		}
	case KindFleet:
		fr, err := eng.FleetCtx(ctx, req.App, req.Scale, req.Ranks)
		if err != nil {
			return nil, false, err
		}
		persist = !fr.Partial
		if doc.JSON, err = json.Marshal(fr); err != nil {
			return nil, false, err
		}
		if err := report.FleetTable(&text, fr); err != nil {
			return nil, false, err
		}
	case KindTable1:
		rows, err := eng.Table1(req.Scale)
		if err != nil {
			return nil, false, err
		}
		if doc.JSON, err = json.Marshal(rows); err != nil {
			return nil, false, err
		}
		if err := report.Table1(&text, rows); err != nil {
			return nil, false, err
		}
	case KindTable2:
		sections, err := eng.Table2(req.Scale, req.Apps)
		if err != nil {
			return nil, false, err
		}
		if doc.JSON, err = json.Marshal(sections); err != nil {
			return nil, false, err
		}
		if err := report.Table2Sections(&text, req.Apps, sections); err != nil {
			return nil, false, err
		}
	case KindAutofix:
		rows, err := autofix.TableWith(eng, req.Scale)
		if err != nil {
			return nil, false, err
		}
		if doc.JSON, err = json.Marshal(rows); err != nil {
			return nil, false, err
		}
		if err := report.AutofixTable(&text, rows); err != nil {
			return nil, false, err
		}
	default:
		return nil, false, fmt.Errorf("serve: unknown kind %q", req.Kind)
	}
	doc.Text = text.String()
	// The one indentation pass over the finished document: every kind's
	// payload is compact. MarshalIndent compacts a RawMessage before
	// indenting, so the bytes are those an indented payload would give.
	data, err = json.MarshalIndent(&doc, "", "  ")
	return data, persist, err
}

// traceFromStore extracts the annotated trace from a previously stored
// "run" result document, so a replay request can address a capture by its
// store key instead of inlining megabytes of records.
func (s *Server) traceFromStore(key string) ([]byte, error) {
	if s.store == nil {
		return nil, fmt.Errorf("serve: \"traceKey\" needs a persistent store (-store)")
	}
	data, err := s.store.Get(key)
	if err != nil {
		return nil, fmt.Errorf("serve: traceKey %q: %w", key, err)
	}
	doc, err := decodeResult(data)
	if err != nil {
		return nil, err
	}
	var payload struct {
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(doc.JSON, &payload); err != nil || len(payload.Trace) == 0 {
		return nil, fmt.Errorf("serve: stored document %q carries no trace (only \"run\" results do)", key)
	}
	return payload.Trace, nil
}

// errCorruptResult marks a result document that does not parse.
var errCorruptResult = errors.New("serve: corrupt result document")

// decodeResult parses a job's stored result document.
func decodeResult(data []byte) (*ResultDoc, error) {
	var doc ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: %w", errCorruptResult, err)
	}
	return &doc, nil
}
