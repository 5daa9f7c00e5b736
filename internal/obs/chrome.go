package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
)

// chromeEvent is the trace-event JSON schema (catapult format). Complete
// spans use ph "X" with ts/dur in microseconds; process/thread names are
// "M" metadata events.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON-object flavour of the format, which
// tolerates extra fields and is what chrome://tracing's "Load" expects.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const secondsToMicros = 1e6

// WriteChromeTrace exports the recorded events as Chrome trace-event JSON.
// Events are sorted by (pid, tid, start) so the output is deterministic for
// tests regardless of goroutine interleaving during recording.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	var events []Event
	var procNames map[int]string
	var threads map[[2]int]string
	if t != nil {
		t.mu.Lock()
		events = append([]Event(nil), t.events...)
		procNames = make(map[int]string, len(t.procNames))
		for k, v := range t.procNames {
			procNames[k] = v
		}
		threads = make(map[[2]int]string, len(t.threads))
		for k, v := range t.threads {
			threads[k] = v
		}
		t.mu.Unlock()
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].PID != events[j].PID {
			return events[i].PID < events[j].PID
		}
		if events[i].TID != events[j].TID {
			return events[i].TID < events[j].TID
		}
		return events[i].Start < events[j].Start
	})

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	var pids []int
	for pid := range procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": procNames[pid]},
		})
	}
	var tkeys [][2]int
	for k := range threads {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool {
		if tkeys[i][0] != tkeys[j][0] {
			return tkeys[i][0] < tkeys[j][0]
		}
		return tkeys[i][1] < tkeys[j][1]
	})
	for _, k := range tkeys {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: k[0], TID: k[1],
			Args: map[string]any{"name": threads[k]},
		})
	}

	for _, e := range events {
		dur := e.Dur * secondsToMicros
		ce := chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: "X", TS: e.Start * secondsToMicros,
			Dur: &dur, PID: e.PID, TID: e.TID,
		}
		if len(e.Args) > 0 {
			ce.Args = make(map[string]any, len(e.Args))
			for k, v := range e.Args {
				ce.Args[k] = v
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTraceFile writes the trace to path.
func (t *Trace) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
