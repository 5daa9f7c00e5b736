package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one call into a layer's public function, timed from the harness.
// Spans of one op share ID; Parent is the index of the enclosing span among
// the spans of the same lane (−1 for a root).
type span struct {
	Name   string
	Start  int64 // ns since the segment began
	End    int64
	Parent int
	ID     int64
	Gen    int // lane: the generator that recorded it
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer is one generator's span buffer. A nil tracer is tracing off: begin
// and end cost one nil check.
type tracer struct {
	t0    time.Time
	gen   int
	ops   int64
	spans []span
}

func newTracer(t0 time.Time, gen int) *tracer {
	return &tracer{t0: t0, gen: gen, spans: make([]span, 0, 1<<16)}
}

// opID returns a fresh identifier for the spans of one op, unique across
// generators.
func (t *tracer) opID() int64 {
	if t == nil {
		return 0
	}
	t.ops++
	return int64(t.gen)<<32 | t.ops
}

func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, ID: id, Gen: t.gen})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// spanSeconds returns the durations of every span called name.
func spanSeconds(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// selfSeconds is the summed self time of the spans called name: duration
// minus the part their direct children cover.
func selfSeconds(spans []span, name string) float64 {
	var total float64
	// Children follow their parent within one generator's buffer, and the
	// merged slice keeps each generator's spans contiguous, so a parent index
	// is relative to the first span of that generator.
	base := 0
	for i, s := range spans {
		if i > 0 && s.Gen != spans[i-1].Gen {
			base = i
		}
		if s.Name == name {
			total += s.seconds()
		}
		if s.Parent >= 0 && spans[base+s.Parent].Name == name {
			total -= s.seconds()
		}
	}
	return total
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one thread
// lane per generator.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Gen,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "start_ns": s.Start, "end_ns": s.End}})
	}
	return writeJSON(path, map[string]any{"traceEvents": events})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
