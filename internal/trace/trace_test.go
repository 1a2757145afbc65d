package trace

import (
	"bytes"
	"strings"
	"testing"

	"diogenes/internal/callstack"
	"diogenes/internal/simtime"
)

func sampleRun() *Run {
	return &Run{
		App:        "cumf_als",
		Stage:      2,
		ExecTime:   90 * simtime.Second,
		TotalCalls: 12345,
		SyncFuncs:  []string{"cudaFree", "cudaMemcpy"},
		Records: []Record{
			{
				Seq: 1, Func: "cudaFree", Class: ClassSync,
				Entry: 100, Exit: 500, SyncWait: 300, Scope: "implicit",
				Stack: callstack.Trace{{Function: "solve", File: "als.cpp", Line: 856}},
			},
			{
				Seq: 2, Func: "cudaMemcpy", Class: ClassTransfer,
				Entry: 600, Exit: 900, SyncWait: 200, Scope: "implicit",
				Dir: "HtoD", Bytes: 4096, HostAddr: 0x10000, HostSize: 4096,
				Duplicate: true, FirstSeq: 1, Hash: "deadbeef01020304",
			},
			{
				Seq: 3, Func: "cudaDeviceSynchronize", Class: ClassSync,
				Entry: 1000, Exit: 1100, SyncWait: 80, Scope: "explicit",
				ProtectedAccess: true,
				AccessSite:      Site{Function: "updateX", File: "als.cpp", Line: 877},
				FirstUse:        50 * simtime.Microsecond,
			},
		},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	run := sampleRun()
	var buf bytes.Buffer
	if err := run.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != run.App || got.Stage != run.Stage || got.ExecTime != run.ExecTime {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Records) != 3 {
		t.Fatalf("records = %d", len(got.Records))
	}
	if got.Records[1].Hash != "deadbeef01020304" || !got.Records[1].Duplicate {
		t.Fatalf("dup record = %+v", got.Records[1])
	}
	if got.Records[2].AccessSite.Line != 877 || got.Records[2].FirstUse != 50*simtime.Microsecond {
		t.Fatalf("annotated record = %+v", got.Records[2])
	}
	if got.Records[0].Stack[0].Function != "solve" {
		t.Fatalf("stack lost: %+v", got.Records[0].Stack)
	}
	if got.SyncFuncs[0] != "cudaFree" {
		t.Fatalf("SyncFuncs = %v", got.SyncFuncs)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestJSONIsHumanReadable(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRun().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"app": "cumf_als"`, `"func": "cudaFree"`, "\n  "} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestOfClass(t *testing.T) {
	run := sampleRun()
	syncs := run.OfClass(ClassSync)
	transfers := run.OfClass(ClassTransfer)
	if len(syncs) != 2 || len(transfers) != 1 {
		t.Fatalf("syncs=%d transfers=%d", len(syncs), len(transfers))
	}
	if syncs[0].Seq != 1 || syncs[1].Seq != 3 {
		t.Fatal("order not preserved")
	}
}

func TestTotalSyncWait(t *testing.T) {
	if got := sampleRun().TotalSyncWait(); got != 580 {
		t.Fatalf("TotalSyncWait = %v, want 580ns", got)
	}
}

func TestRecordDuration(t *testing.T) {
	r := Record{Entry: 100, Exit: 350}
	if r.Duration() != 250 {
		t.Fatalf("Duration = %v", r.Duration())
	}
}

func TestSiteHelpers(t *testing.T) {
	if !(Site{}).IsZero() {
		t.Fatal("zero site not IsZero")
	}
	s := Site{Function: "f", File: "x.cpp", Line: 3}
	if s.IsZero() {
		t.Fatal("set site IsZero")
	}
	if s.String() != "f (x.cpp:3)" {
		t.Fatalf("String = %q", s.String())
	}
	if (Site{}).String() != "<unknown>" {
		t.Fatal("zero site string wrong")
	}
}

func TestFormatVersionStampedAndChecked(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRun().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != FormatVersion {
		t.Fatalf("format = %d, want %d", got.Format, FormatVersion)
	}
	// A future-version file is rejected.
	newer := strings.Replace(buf.String(), `"format": 1`, `"format": 99`, 1)
	if !strings.Contains(newer, `"format": 99`) {
		t.Fatal("test setup: format field not found")
	}
	if _, err := ReadJSON(strings.NewReader(newer)); err == nil {
		t.Fatal("future format accepted")
	}
	// Legacy files without a format field still parse.
	legacy := strings.Replace(buf.String(), `"format": 1,`, ``, 1)
	if _, err := ReadJSON(strings.NewReader(legacy)); err != nil {
		t.Fatalf("legacy file rejected: %v", err)
	}
}
