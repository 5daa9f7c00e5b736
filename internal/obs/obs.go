// Package obs records spans on named timelines and
// exports them as Chrome trace-event JSON (the catapult format understood by
// chrome://tracing and https://ui.perfetto.dev), so a pipeline sync-round or
// an FL run renders as a real per-device timeline.
//
// Two clocks are supported: wall time (NewWall), for the live goroutine
// pipeline and the TCP daemons, and an arbitrary virtual clock (New),
// for the discrete-event simulations — spans can also be emitted with
// explicit start/end timestamps, bypassing the clock entirely.
//
// A nil *Trace is the nop recorder: every method is a cheap early return
// (no time.Now call, no allocation, no lock), so instrumented hot loops pay
// ~0 ns when tracing is disabled. Instrumentation therefore always calls
// through the possibly-nil pointer rather than branching itself.
package obs

import (
	"sync"
	"time"
)

// DefaultMaxEvents bounds a Trace's event buffer unless SetMaxEvents says
// otherwise. Long chaos soaks record spans for hours; an unbounded buffer
// turns them into a slow OOM. At ~100 B/event this default caps a trace near
// 25 MB; events past the cap are counted in Dropped rather than stored
// (drop-newest, so EventsFrom high-water-mark shipping keeps stable indexes).
const DefaultMaxEvents = 1 << 18

// Event is one recorded trace event. Timestamps are in the trace's clock
// units (seconds); the Chrome exporter converts to microseconds. The JSON
// tags are what a span costs inside a telemetry trailer
// (flnet.TelemetrySnapshot).
type Event struct {
	Name  string  `json:"n"`
	Cat   string  `json:"c,omitempty"`
	Start float64 `json:"s"`
	Dur   float64 `json:"d,omitempty"`
	PID   int     `json:"p,omitempty"`
	TID   int     `json:"t,omitempty"`
	// Args are optional numeric annotations (micro-batch index, bytes, …).
	Args map[string]float64 `json:"a,omitempty"`
}

// Trace is a concurrency-safe span/event recorder. Create with NewWall or
// New; a nil *Trace discards everything at ~0 cost.
type Trace struct {
	clock func() float64

	mu        sync.Mutex
	events    []Event
	max       int // 0 = unbounded
	dropped   uint64
	procNames map[int]string
	threads   map[[2]int]string
}

// NewWall returns a recorder stamping events with wall-clock seconds
// relative to its creation.
func NewWall() *Trace {
	t0 := time.Now()
	return New(func() float64 { return time.Since(t0).Seconds() })
}

// New returns a recorder over an arbitrary clock. A nil clock is valid when
// every event carries explicit timestamps (Span).
func New(clock func() float64) *Trace {
	return &Trace{
		clock:     clock,
		max:       DefaultMaxEvents,
		procNames: make(map[int]string),
		threads:   make(map[[2]int]string),
	}
}

// SetMaxEvents caps the event buffer at n events; n <= 0 removes the bound.
// Once full, new events are dropped (newest-first) and counted in Dropped —
// drop-newest keeps indexes stable for EventsFrom incremental shipping, and
// the Chrome export stays valid because stored events are never mutated.
func (t *Trace) SetMaxEvents(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if n < 0 {
		n = 0
	}
	t.max = n
	t.mu.Unlock()
}

// Dropped reports how many events were discarded after the buffer filled.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// appendLocked stores e unless the cap is reached; callers hold t.mu.
func (t *Trace) appendLocked(e Event) {
	if t.max > 0 && len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Now returns the recorder's current clock reading (0 when nil or clockless).
func (t *Trace) Now() float64 {
	if t == nil || t.clock == nil {
		return 0
	}
	return t.clock()
}

// SetProcessName labels a pid lane in the exported trace.
func (t *Trace) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procNames[pid] = name
	t.mu.Unlock()
}

// SetThreadName labels a (pid, tid) track in the exported trace.
func (t *Trace) SetThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[[2]int{pid, tid}] = name
	t.mu.Unlock()
}

// Span records a complete span with explicit start/end timestamps — the
// entry point for virtual-time schedules, where the clock never ticks on its
// own. Negative durations are clamped to 0.
func (t *Trace) Span(pid, tid int, name, cat string, start, end float64, args map[string]float64) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	t.appendLocked(Event{
		Name: name, Cat: cat, Start: start, Dur: dur, PID: pid, TID: tid, Args: args,
	})
	t.mu.Unlock()
}

// Span handle for clock-driven begin/end recording.
type Span struct {
	t     *Trace
	pid   int
	tid   int
	name  string
	cat   string
	start float64
}

// Begin opens a span at the current clock reading. On a nil Trace it returns
// a zero Span whose End is a no-op — callers never branch.
func (t *Trace) Begin(pid, tid int, name, cat string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, pid: pid, tid: tid, name: name, cat: cat, start: t.Now()}
}

// End closes the span at the current clock reading.
func (s Span) End() { s.EndArgs(nil) }

// EndArgs closes the span attaching numeric annotations.
func (s Span) EndArgs(args map[string]float64) {
	if s.t == nil {
		return
	}
	s.t.Span(s.pid, s.tid, s.name, s.cat, s.start, s.t.Now(), args)
}

// EndMicro closes the span attaching a micro-batch index. The args map is
// only allocated when the span is live, keeping nop-recorder call sites
// allocation-free.
func (s Span) EndMicro(micro int) {
	if s.t == nil {
		return
	}
	s.EndArgs(map[string]float64{"micro": float64(micro)})
}

// Len returns the number of recorded events (metadata excluded).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in recording order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}
