package journal

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
)

// Chrome trace-event export (the catapult format understood by
// chrome://tracing and https://ui.perfetto.dev): every node is a process,
// every lane a thread; a span is a complete "X" event, an instant event an
// "i" marker on its lane.

// chromeEvent is the trace-event JSON schema. ts/dur are in microseconds;
// process/thread names are "M" metadata events.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON-object flavour of the format, which
// tolerates extra fields and is what chrome://tracing's "Load" expects.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the recorder's buffered events as Chrome
// trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return writeChrome(w, r.Events(), r.nameEvents())
}

// WriteChromeTrace exports the merged fleet timeline as Chrome trace-event
// JSON, one process per node on the local clock.
func (f *Fleet) WriteChromeTrace(w io.Writer) error {
	names := f.Local().nameEvents()
	if f != nil {
		f.mu.Lock()
		for node, name := range f.procs {
			if name == "" {
				name = "node"
			}
			names = append(names, nameEvent("process_name", node, 0, name+" "+strconv.Itoa(node)))
		}
		f.mu.Unlock()
	}
	return writeChrome(w, f.Events(), names)
}

// WriteChromeTraceFile writes a Chrome trace — a Recorder's or a Fleet's
// WriteChromeTrace — to path.
func WriteChromeTraceFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// nameEvents returns the recorder's process and lane names as metadata.
func (r *Recorder) nameEvents() []chromeEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []chromeEvent
	for lane, name := range r.names {
		if lane == None {
			out = append(out, nameEvent("process_name", r.node, 0, name))
		} else {
			out = append(out, nameEvent("thread_name", r.node, lane, name))
		}
	}
	return out
}

func nameEvent(kind string, pid, tid int, name string) chromeEvent {
	return chromeEvent{Name: kind, Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
}

const secondsToMicros = 1e6

// writeChrome writes the name metadata and evs as Chrome trace-event JSON,
// sorted by (node, metadata first, lane, start, name) so the output is
// deterministic regardless of recording order.
func writeChrome(w io.Writer, evs []Event, names []chromeEvent) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: append(make([]chromeEvent, 0, len(names)+len(evs)), names...)}
	for _, e := range evs {
		ce := chromeEvent{Name: e.Kind, Ph: "i", Scope: "t", TS: (e.TS - e.Dur) * secondsToMicros, PID: e.Node, TID: e.Lane}
		if e.Dur > 0 {
			dur := e.Dur * secondsToMicros
			ce.Ph, ce.Scope, ce.Dur = "X", "", &dur
		}
		if len(e.Attrs) > 0 || e.Round != None || e.Client != None {
			ce.Args = make(map[string]any, len(e.Attrs)+2)
			for k, v := range e.Attrs {
				ce.Args[k] = v
			}
			if e.Round != None {
				ce.Args["round"] = e.Round
			}
			if e.Client != None {
				ce.Args["client"] = e.Client
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := &out.TraceEvents[i], &out.TraceEvents[j]
		switch {
		case a.PID != b.PID:
			return a.PID < b.PID
		case (a.Ph == "M") != (b.Ph == "M"):
			return a.Ph == "M"
		case a.TID != b.TID:
			return a.TID < b.TID
		case a.TS != b.TS:
			return a.TS < b.TS
		}
		return a.Name < b.Name
	})
	return json.NewEncoder(w).Encode(out)
}
