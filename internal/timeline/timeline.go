// Package timeline holds the stable intermediate timeline model (Model)
// built once from a pipeline's artifacts — annotated trace, device
// operation log, §5.3 stage ledgers, and for fleet launches the per-rank
// outcomes and barrier-skew ledger — plus its renderers: a Chrome
// trace-event exporter (the chrome://tracing / Perfetto JSON format, in
// the obs package's shared event and file types), the text report's
// timing sections, and the served web view all consume the same Model.
// The paper stores Diogenes data in JSON "allowing other tools the
// ability to access data collected by Diogenes" (§4); one shared
// in-memory shape is what keeps the renderers telling the same story.
package timeline

import (
	"strconv"

	"diogenes/internal/obs"
	"diogenes/internal/simtime"
)

const (
	pidProcess = 1
	tidCPU     = 0
	// GPU stream rows start here; stream N renders as tid streamBase+N.
	streamBase = 100
)

func us(t simtime.Time) float64        { return float64(t) / float64(simtime.Microsecond) }
func usDur(d simtime.Duration) float64 { return float64(d) / float64(simtime.Microsecond) }

// Chrome renders the model as a Chrome trace-event file: one row for the
// CPU thread's driver calls — wait portions emitted as nested "wait"
// slices — one row per GPU stream, and for fleet models one row per rank.
// The event layout is a pure function of the model, so byte-determinism of
// the model carries over to the export. The file's otherData identifies
// the capture: app, family/seed, ranks, and tool version when stamped.
func (m *Model) Chrome() *obs.ChromeFile {
	f := &obs.ChromeFile{Metadata: map[string]string{
		"tool":   "diogenes",
		"format": "chrome-trace-events",
	}}
	if m.Meta.App != "" {
		f.Metadata["app"] = m.Meta.App
	}
	if m.Meta.Family != "" {
		f.Metadata["family"] = m.Meta.Family
		f.Metadata["seed"] = strconv.FormatInt(m.Meta.Seed, 10)
	}
	if m.Meta.Ranks > 0 {
		f.Metadata["ranks"] = strconv.Itoa(m.Meta.Ranks)
		if m.Kind != "fleet" {
			f.Metadata["rank"] = strconv.Itoa(m.Meta.Rank)
		}
	}
	if m.Meta.Version != "" {
		f.Metadata["version"] = m.Meta.Version
	}
	rows := make(map[string]Lane, len(m.Lanes))
	for _, l := range m.Lanes {
		rows[l.ID] = l
	}
	for i := range m.Events {
		e := &m.Events[i]
		lane := rows[e.Lane]
		switch lane.Kind {
		case LaneCPU:
			args := map[string]any{
				"class": e.Class,
				"scope": e.Scope,
			}
			if e.Duplicate {
				args["duplicate"] = true
			}
			if e.Protected {
				args["firstUse_us"] = usDur(e.FirstUse)
			}
			f.TraceEvents = append(f.TraceEvents, obs.ChromeEvent{
				Name: e.Name, Cat: e.Cat, Phase: "X",
				TS: us(e.Start), Dur: usDur(e.Dur),
				PID: pidProcess, TID: lane.Row, Args: args,
			})
			if e.Wait > 0 {
				// Render the wait portion as a nested slice at the end of
				// the call, where the block happens.
				waitStart := e.Start.Add(e.Dur - e.Wait)
				f.TraceEvents = append(f.TraceEvents, obs.ChromeEvent{
					Name: "wait", Cat: "sync", Phase: "X",
					TS: us(waitStart), Dur: usDur(e.Wait),
					PID: pidProcess, TID: lane.Row,
					Args: map[string]any{"for": e.Name},
				})
			}
		case LaneGPU:
			// Open-ended kernels carry Dur 0 and render as zero-length
			// markers; the subtraction reproduces the historical float
			// rounding exactly.
			end := e.Start.Add(e.Dur)
			f.TraceEvents = append(f.TraceEvents, obs.ChromeEvent{
				Name: e.Name, Cat: e.Cat, Phase: "X",
				TS: us(e.Start), Dur: us(end) - us(e.Start),
				PID: pidProcess, TID: lane.Row,
				Args: map[string]any{"bytes": e.Bytes, "stream": e.Stream},
			})
		default: // rank and barrier lanes: plain slices, no args
			f.TraceEvents = append(f.TraceEvents, obs.ChromeEvent{
				Name: e.Name, Cat: e.Cat, Phase: "X",
				TS: us(e.Start), Dur: usDur(e.Dur),
				PID: pidProcess, TID: lane.Row,
			})
		}
	}
	return f
}
