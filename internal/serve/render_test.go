package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"diogenes/internal/experiments"
	"diogenes/internal/ffm"
	"diogenes/internal/obs"
	"diogenes/internal/report"
	"diogenes/internal/trace"
)

// legacyResultDoc is the reference render of a run or replay result
// document: the indented report (Report.WriteJSON, itself pinned to the
// nested encoder by ffm's TestRenderMatchesNestedEncoder) as the payload,
// then json.MarshalIndent of the whole ResultDoc.
func legacyResultDoc(t *testing.T, doc ResultDoc, rep *ffm.Report) []byte {
	t.Helper()
	var payload, text bytes.Buffer
	if err := rep.WriteJSON(&payload); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteMarkdown(&text, rep); err != nil {
		t.Fatal(err)
	}
	doc.JSON = payload.Bytes()
	doc.Text = text.String()
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// execJob renders req's result document through runJob on a fresh engine.
func execJob(t *testing.T, s *Server, req Request) []byte {
	t.Helper()
	if err := req.normalize(); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.runJob(context.Background(), s.engineFor(&req, obs.New("job")), req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunJobDocumentsMatchNestedRender pins the documents runJob renders
// for the run and replay kinds (compact payload, one indentation pass)
// byte for byte to the nested render they replaced.
func TestRunJobDocumentsMatchNestedRender(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	const app, scale = "rodinia_gaussian", 0.1
	rep, err := (&experiments.Engine{Workers: 1}).RunApp(app, scale)
	if err != nil {
		t.Fatal(err)
	}
	want := legacyResultDoc(t, ResultDoc{Kind: KindRun, App: app, Scale: scale}, rep)
	if got := execJob(t, s, Request{Kind: KindRun, App: app, Scale: scale}); !bytes.Equal(got, want) {
		t.Errorf("run document: %d bytes differ from the nested render's %d bytes", len(got), len(want))
	}

	var records bytes.Buffer
	if err := rep.Trace.WriteJSON(&records); err != nil {
		t.Fatal(err)
	}
	run, err := trace.ReadJSON(bytes.NewReader(records.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := (&experiments.Engine{Workers: 1}).Replay(run)
	if err != nil {
		t.Fatal(err)
	}
	want = legacyResultDoc(t, ResultDoc{Kind: KindReplay, App: replayed.App}, replayed)
	if got := execJob(t, s, Request{Kind: KindReplay, Trace: records.Bytes()}); !bytes.Equal(got, want) {
		t.Errorf("replay document: %d bytes differ from the nested render's %d bytes", len(got), len(want))
	}
}

// TestServedDocPassesThroughVerbatim pins ?format=doc as a pass-through
// for an in-process job and a store hit alike — the bytes the store holds
// — with json and text still slicing the same document; and a corrupt
// stored document is a 500 with a JSON error body, never torn bytes.
func TestServedDocPassesThroughVerbatim(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Workers: 1, QueueCapacity: 4, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	const body = `{"kind":"run","app":"rodinia_gaussian","scale":0.05}`
	var stored string
	for _, wantFromStore := range []bool{false, true} {
		v := getStatus(t, ts, runOneJob(t, ts, body))
		if v.FromStore != wantFromStore {
			t.Fatalf("fromStore = %v, want %v", v.FromStore, wantFromStore)
		}
		stored = filepath.Join(dir, v.StoreKey+storeExt)
		onDisk, err := os.ReadFile(stored)
		if err != nil {
			t.Fatal(err)
		}
		doc := getReport(t, ts, v.ID, "doc")
		if !bytes.Equal(doc, onDisk) {
			t.Fatalf("fromStore=%v: ?format=doc (%d bytes) is not the stored document (%d bytes)", v.FromStore, len(doc), len(onDisk))
		}
		want, err := decodeResult(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := getReport(t, ts, v.ID, "json"); !bytes.Equal(got, want.JSON) {
			t.Errorf("fromStore=%v: ?format=json is not the document's payload", v.FromStore)
		}
		if got := getReport(t, ts, v.ID, "text"); string(got) != want.Text {
			t.Errorf("fromStore=%v: ?format=text is not the document's text", v.FromStore)
		}
	}

	fi, err := os.Stat(stored)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(stored, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	v := getStatus(t, ts, runOneJob(t, ts, body))
	if !v.FromStore {
		t.Fatal("the truncated document was not served from the store")
	}
	code, hdr, raw := getBody(t, ts.URL+"/jobs/"+v.ID+"/report?format=doc")
	if code != http.StatusInternalServerError {
		t.Fatalf("corrupt stored document: status %d, want 500 (%d bytes)", code, len(raw))
	}
	var e errorBody
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("corrupt stored document: body is not a JSON error (%v): %q", err, raw)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("corrupt stored document: Content-Type %q", ct)
	}
}
