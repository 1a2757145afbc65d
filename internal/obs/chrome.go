package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"diogenes/internal/simtime"
)

// ChromeEvent is one Chrome trace_event record (the "X" complete-event
// form), loadable in Perfetto or chrome://tracing. It is the one event
// type every Chrome export shares: this package's pipeline span trace and
// the timeline model's CPU/GPU/rank rendering.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeFile is the top-level trace_event container.
type ChromeFile struct {
	TraceEvents []ChromeEvent     `json:"traceEvents"`
	Metadata    map[string]string `json:"otherData,omitempty"`
}

const chromePID = 1

func chromeUS(d simtime.Duration) float64 {
	return float64(d) / float64(simtime.Microsecond)
}

// Chrome lays the span tree out on the virtual timeline and renders it as
// a trace_event file. The layout is purely a function of the tree's
// deterministic content — (order, name) sort keys, virtual durations and
// explicit offsets — never of span creation order or wall time, so serial
// and parallel executions of the same pipeline serialize to identical
// bytes.
func (t *Trace) Chrome() *ChromeFile {
	f := &ChromeFile{Metadata: map[string]string{
		"tool":   "diogenes",
		"format": "chrome-trace-events",
		"layer":  "obs",
	}}
	if t == nil {
		return f
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f.Metadata["trace"] = t.root.name

	var walk func(s *Span, start simtime.Duration, row int)
	walk = func(s *Span, start simtime.Duration, row int) {
		if s.row != 0 {
			row = s.row
		}
		ev := ChromeEvent{
			Name: s.name, Cat: s.cat, Phase: "X",
			TS: chromeUS(start), Dur: chromeUS(s.virtualLocked()),
			PID: chromePID, TID: row,
		}
		if len(s.args) > 0 {
			ev.Args = make(map[string]any, len(s.args))
			for k, v := range s.args {
				ev.Args[k] = v // encoding/json sorts map keys
			}
		}
		f.TraceEvents = append(f.TraceEvents, ev)
		cursor := start
		for _, c := range s.sortedChildrenLocked() {
			cs := cursor
			if c.hasOff {
				cs = start + c.voff
			} else {
				cursor = cs + c.virtualLocked()
			}
			walk(c, cs, row)
		}
	}
	walk(t.root, 0, 0)
	return f
}

// Write serializes the file as JSON.
func (f *ChromeFile) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(f)
}

// ReadChrome parses a trace_event file written by Write.
func ReadChrome(r io.Reader) (*ChromeFile, error) {
	var f ChromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: decoding chrome trace: %w", err)
	}
	return &f, nil
}

// EventsNamed returns the events whose name matches exactly.
func (f *ChromeFile) EventsNamed(name string) []ChromeEvent {
	var out []ChromeEvent
	for _, e := range f.TraceEvents {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}
