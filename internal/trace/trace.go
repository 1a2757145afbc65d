// Package trace defines the performance-data records FFM's collection
// stages produce and the JSON container Diogenes stores them in.
//
// The paper (§1, §4): "Diogenes collected performance data is stored in a
// standard format (JSON) that can be read by other tools." Each stage's
// output is a Run; stage 5 consumes Runs and produces analysis results
// (package ffm).
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"diogenes/internal/callstack"
	"diogenes/internal/simtime"
)

// OpClass separates the two operation families FFM collects.
type OpClass string

// Operation classes.
const (
	ClassSync     OpClass = "sync"
	ClassTransfer OpClass = "transfer"
)

// Site is a source position, the serialized form of memory.Site.
type Site struct {
	Function string `json:"function,omitempty"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
}

// IsZero reports whether the site is unset.
func (s Site) IsZero() bool { return s == Site{} }

// String renders the site as function (file:line).
func (s Site) String() string {
	if s.IsZero() {
		return "<unknown>"
	}
	return fmt.Sprintf("%s (%s:%d)", s.Function, s.File, s.Line)
}

// Record is one traced operation. The collection stages populate
// progressively more of it: stage 2 fills the timing and stack fields,
// stage 3 the duplicate/access fields, stage 4 FirstUse.
type Record struct {
	Seq   int64   `json:"seq"`
	Func  string  `json:"func"`
	Class OpClass `json:"class"`

	Entry    simtime.Time     `json:"entry"`
	Exit     simtime.Time     `json:"exit"`
	SyncWait simtime.Duration `json:"syncWait,omitempty"`
	Scope    string           `json:"scope,omitempty"`

	Dir      string `json:"dir,omitempty"`
	Bytes    int    `json:"bytes,omitempty"`
	HostAddr uint64 `json:"hostAddr,omitempty"`
	HostSize int    `json:"hostSize,omitempty"`

	Stack callstack.Trace `json:"stack,omitempty"`

	// Stage 3 annotations.
	Duplicate       bool   `json:"duplicate,omitempty"`
	FirstSeq        int64  `json:"firstSeq,omitempty"`
	Hash            string `json:"hash,omitempty"`
	ProtectedAccess bool   `json:"protectedAccess,omitempty"`
	AccessSite      Site   `json:"accessSite,omitempty"`

	// Stage 4 annotation: time from synchronization end to first use of
	// protected data.
	FirstUse simtime.Duration `json:"firstUse,omitempty"`
}

// Duration returns the record's total call time.
func (r *Record) Duration() simtime.Duration { return r.Exit.Sub(r.Entry) }

// Run is the output of one instrumented execution of the application.
// FormatVersion is the trace interchange schema version, bumped on
// incompatible changes so consuming tools can reject newer files cleanly.
const FormatVersion = 1

type Run struct {
	App   string `json:"app"`
	Stage int    `json:"stage"`
	// Format is the schema version; WriteJSON stamps FormatVersion and
	// ReadJSON rejects files from a newer schema.
	Format int `json:"format,omitempty"`
	// ExecTime is the overhead-compensated execution time: wall virtual
	// time minus the known instrumentation cost, i.e. the application's
	// own timeline that records are stamped on.
	ExecTime simtime.Duration `json:"execTime"`
	// RawExecTime is the actual instrumented run duration — what the data
	// collection cost (§5.3's overhead accounting uses it).
	RawExecTime simtime.Duration `json:"rawExecTime"`
	TotalCalls  int64            `json:"totalCalls"`
	// SyncFuncs is stage 1's product: the driver API functions observed to
	// synchronize, in first-seen order.
	SyncFuncs []string `json:"syncFuncs,omitempty"`
	Records   []Record `json:"records,omitempty"`
}

// runDoc is Run without its methods, so MarshalJSON can encode the fields
// without recursing into itself.
type runDoc Run

// MarshalJSON is the run's one encoding: compact and stamped with
// FormatVersion. WriteJSON indents it; documents that embed the run (the
// ffm report) splice it in compact.
func (r *Run) MarshalJSON() ([]byte, error) {
	stamped := runDoc(*r)
	stamped.Format = FormatVersion
	return json.Marshal(&stamped)
}

// WriteJSON serializes the run with indentation (the on-disk tool format).
func (r *Run) WriteJSON(w io.Writer) error {
	compact, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	return WriteIndented(w, compact)
}

// WriteIndented writes a compact JSON encoding in the tool's on-disk
// layout: two-space indentation and a trailing newline, byte-identical to
// a json.Encoder with SetIndent("", "  ") encoding the same value. The
// run, analysis and report writers each indent their one compact encoding
// through here.
func WriteIndented(w io.Writer, compact []byte) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	return err
}

// ReadJSON parses a run written by WriteJSON. Files stamped with a newer
// schema version are rejected rather than misread, and structurally invalid
// documents (negative sizes or timestamps, unknown record kinds, duplicate
// sequence numbers) are rejected with a *ValidationError instead of being
// handed to consumers that would panic on them.
func ReadJSON(rd io.Reader) (*Run, error) {
	var run Run
	if err := json.NewDecoder(rd).Decode(&run); err != nil {
		return nil, fmt.Errorf("trace: decoding run: %w", err)
	}
	if run.Format > FormatVersion {
		return nil, fmt.Errorf("trace: file format %d newer than supported %d", run.Format, FormatVersion)
	}
	if err := run.Validate(); err != nil {
		return nil, err
	}
	return &run, nil
}

// ValidationError describes why a trace document was rejected: the offending
// record's sequence number (0 for run-level fields), the field, and the
// reason.
type ValidationError struct {
	Seq    int64
	Field  string
	Reason string
}

// Error implements error.
func (e *ValidationError) Error() string {
	if e.Seq != 0 {
		return fmt.Sprintf("trace: record %d: %s %s", e.Seq, e.Field, e.Reason)
	}
	return fmt.Sprintf("trace: %s %s", e.Field, e.Reason)
}

// Validate checks the structural invariants every Run written by the
// collection stages satisfies: non-negative durations and timestamps,
// exits not preceding entries, known record classes, and positive, unique
// sequence numbers. Consumers that re-drive the simulator from a trace
// (replay) depend on these holding.
func (r *Run) Validate() error {
	if r.ExecTime < 0 {
		return &ValidationError{Field: "execTime", Reason: "is negative"}
	}
	if r.RawExecTime < 0 {
		return &ValidationError{Field: "rawExecTime", Reason: "is negative"}
	}
	if r.TotalCalls < 0 {
		return &ValidationError{Field: "totalCalls", Reason: "is negative"}
	}
	seen := make(map[int64]bool, len(r.Records))
	for i := range r.Records {
		rec := &r.Records[i]
		if rec.Seq <= 0 {
			return &ValidationError{Seq: rec.Seq, Field: "seq", Reason: "must be positive"}
		}
		if seen[rec.Seq] {
			return &ValidationError{Seq: rec.Seq, Field: "seq", Reason: "is duplicated"}
		}
		seen[rec.Seq] = true
		if rec.Class != ClassSync && rec.Class != ClassTransfer {
			return &ValidationError{Seq: rec.Seq, Field: "class", Reason: fmt.Sprintf("%q is not a known record kind", rec.Class)}
		}
		if rec.Entry < 0 {
			return &ValidationError{Seq: rec.Seq, Field: "entry", Reason: "is negative"}
		}
		if rec.Exit < 0 {
			return &ValidationError{Seq: rec.Seq, Field: "exit", Reason: "is negative"}
		}
		if rec.Exit < rec.Entry {
			return &ValidationError{Seq: rec.Seq, Field: "exit", Reason: "precedes entry"}
		}
		if rec.SyncWait < 0 {
			return &ValidationError{Seq: rec.Seq, Field: "syncWait", Reason: "is negative"}
		}
		if rec.FirstUse < 0 {
			return &ValidationError{Seq: rec.Seq, Field: "firstUse", Reason: "is negative"}
		}
		if rec.Bytes < 0 {
			return &ValidationError{Seq: rec.Seq, Field: "bytes", Reason: "is negative"}
		}
		if rec.HostSize < 0 {
			return &ValidationError{Seq: rec.Seq, Field: "hostSize", Reason: "is negative"}
		}
	}
	return nil
}

// OfClass returns the records of one class, preserving order.
func (r *Run) OfClass(c OpClass) []Record {
	var out []Record
	for _, rec := range r.Records {
		if rec.Class == c {
			out = append(out, rec)
		}
	}
	return out
}

// TotalSyncWait sums the synchronization wait across all records.
func (r *Run) TotalSyncWait() simtime.Duration {
	var total simtime.Duration
	for _, rec := range r.Records {
		total += rec.SyncWait
	}
	return total
}
