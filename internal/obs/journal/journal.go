// Package journal is the one recorder: a bounded ring of typed structured
// events, some of which are spans, with a nil-safe nop recorder. Every
// subsystem that can misbehave under chaos (fl strategies, flnet client and
// server, the pipeline executor, simnet fault injection) records small
// correlated events — round, client, kind, free-form attrs — so a failing
// soak can be replayed as a causally-ordered cross-node timeline instead of
// being diagnosed from aggregate metrics alone; the pipeline stages and the
// FL rounds record spans into the same ring, and the ring exports as a Chrome
// trace (chrome.go).
//
// Design points:
//
//   - All Recorder methods are nil-safe: a nil *Recorder is a nop at ~0 cost
//     (a nil check and a return, no time.Now, no allocation), so call sites
//     never guard.
//   - The ring is bounded: once full, the oldest event is overwritten and a
//     dropped counter advances. A flight recorder keeps the *latest* history.
//   - A span is an event with a duration: TS is its end, TS − Dur its start,
//     and Lane the Chrome thread it renders on.
//   - Seq is a per-recorder monotonic sequence. It survives ring wrap, orders
//     events with identical timestamps, and lets importers (journal.Fleet)
//     dedup re-delivered batches (telemetry snapshots are re-sent verbatim on
//     network retry); Epoch tells one recorder instance from the next.
//   - Clocks are pluggable so virtual-time simulations (internal/fl) can
//     stamp events on the simulated clock via RecordAt and SpanAt while
//     wall-clock subsystems use New's monotonic wall clock.
package journal

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// None marks a Round or Client field as not applicable to the event.
const None = -1

// DefaultCapacity is the ring size used when a caller passes capacity <= 0.
const DefaultCapacity = 4096

// Event is one recorded occurrence. TS is seconds on the recorder's clock
// (wall time relative to recorder start, or virtual simulation time) — for a
// span, the instant it ended; Dur is a span's length in seconds (0 for an
// instant event); Node identifies the recording process in a fleet (client
// id, or -1 for the server lane) and Lane the track within it (a pipeline
// stage, an FL lane); Seq is the per-node monotonic sequence number; Round
// and Client carry correlation ids (None when not applicable); Kind is a
// dotted event name from the taxonomy in DESIGN.md ("chaos.inject",
// "pipe.fwd", ...); Attrs holds event-specific detail as strings.
type Event struct {
	TS     float64           `json:"ts"`
	Dur    float64           `json:"dur,omitempty"`
	Node   int               `json:"node"`
	Lane   int               `json:"lane,omitempty"`
	Seq    uint64            `json:"seq"`
	Round  int               `json:"round"`
	Client int               `json:"client"`
	Kind   string            `json:"kind"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Recorder is a bounded, concurrency-safe event ring. The zero value is not
// usable; construct with New or NewClock. A nil *Recorder is a valid nop.
type Recorder struct {
	clock func() float64 // nil => clockless: Record stamps 0, use RecordAt
	node  int
	epoch uint64

	mu    sync.Mutex
	ring  ring
	seq   uint64
	names map[int]string // lane names in a Chrome export; None names the node
}

// ring is the one bounded event buffer, a Recorder's and a Fleet's imported
// lanes': once full, each new event overwrites the oldest.
type ring struct {
	buf     []Event
	max     int // capacity
	next    int // overwrite cursor once len(buf) == max
	dropped uint64
}

func (g *ring) push(e Event) {
	if len(g.buf) < g.max {
		g.buf = append(g.buf, e)
		return
	}
	g.buf[g.next] = e
	g.next = (g.next + 1) % g.max
	g.dropped++
}

// events returns a copy of the buffered events, oldest first.
func (g *ring) events() []Event {
	return append(append(make([]Event, 0, len(g.buf)), g.buf[g.next:]...), g.buf[:g.next]...)
}

// New returns a recorder for the given fleet node id whose clock is wall
// time in seconds relative to now. capacity <= 0 selects DefaultCapacity.
func New(node, capacity int) *Recorder {
	t0 := time.Now()
	return NewClock(node, capacity, func() float64 { return time.Since(t0).Seconds() })
}

// NewClock returns a recorder using an explicit clock (seconds). A nil clock
// makes the recorder clockless: Record stamps TS 0 and callers are expected
// to use RecordAt with explicit (virtual) timestamps.
func NewClock(node, capacity int, clock func() float64) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{clock: clock, node: node, ring: ring{max: capacity}, epoch: rand.Uint64(), names: map[int]string{}}
}

// Now reads the recorder's clock (0 for nil or clockless recorders). It is
// handed to peers as a shared clock and to journal.Fleet for offset math.
func (r *Recorder) Now() float64 {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock()
}

// Epoch names this recorder instance: a process that restarts under the same
// node id starts its Seq at 1 again, under a new epoch.
func (r *Recorder) Epoch() uint64 {
	if r == nil {
		return 0
	}
	return r.epoch
}

// Record appends an event stamped with the recorder's clock. kv is an
// alternating key/value list; an odd trailing key is paired with "". Use
// journal.None for a non-applicable round or client.
func (r *Recorder) Record(kind string, round, client int, kv ...string) {
	if r == nil {
		return
	}
	r.record(r.Now(), 0, 0, kind, round, client, kv)
}

// RecordAt is Record with an explicit timestamp, for virtual-time callers.
func (r *Recorder) RecordAt(ts float64, kind string, round, client int, kv ...string) {
	if r == nil {
		return
	}
	r.record(ts, 0, 0, kind, round, client, kv)
}

// SpanAt records a span from start to end on lane, with explicit
// timestamps — the virtual-time form of Begin/End. A backwards or
// non-finite length is recorded as 0.
func (r *Recorder) SpanAt(start, end float64, lane int, kind string, round, client int, kv ...string) {
	if r == nil {
		return
	}
	dur := end - start
	if !(dur > 0) || math.IsInf(dur, 1) {
		dur = 0
	}
	r.record(end, dur, lane, kind, round, client, kv)
}

// Span is a span opened by Begin on the recorder's clock; End records it.
// The zero Span, which a nil recorder hands out, records nothing.
type Span struct {
	r     *Recorder
	start float64
}

// Begin opens a span now.
func (r *Recorder) Begin() Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, start: r.Now()}
}

// End records the span, ending now, as an event on lane.
func (s Span) End(lane int, kind string, round, client int, kv ...string) {
	if s.r == nil {
		return
	}
	s.r.SpanAt(s.start, s.r.Now(), lane, kind, round, client, kv...)
}

func (r *Recorder) record(ts, dur float64, lane int, kind string, round, client int, kv []string) {
	var attrs map[string]string
	if len(kv) > 0 {
		attrs = make(map[string]string, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			v := ""
			if i+1 < len(kv) {
				v = kv[i+1]
			}
			attrs[kv[i]] = v
		}
	}
	if math.IsNaN(ts) || math.IsInf(ts, 0) {
		ts = 0
	}
	r.mu.Lock()
	r.seq++
	r.ring.push(Event{TS: ts, Dur: dur, Node: r.node, Lane: lane, Seq: r.seq, Round: round, Client: client, Kind: kind, Attrs: attrs})
	r.mu.Unlock()
}

// SetName names one of the recorder's lanes in a Chrome export, or with lane
// None the recorder's node itself.
func (r *Recorder) SetName(lane int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.names[lane] = name
	r.mu.Unlock()
}

// Events returns the buffered events oldest-first. The slice is a copy.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.events()
}

// EventsSince returns buffered events with Seq > seq, oldest-first. It backs
// incremental shipping: the telemetry piggyback keeps a high-water mark and
// ships only the tail each push.
func (r *Recorder) EventsSince(seq uint64) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, chunk := range [2][]Event{r.ring.buf[r.ring.next:], r.ring.buf[:r.ring.next]} {
		for _, e := range chunk {
			if e.Seq > seq {
				out = append(out, e)
			}
		}
	}
	return out
}

// Len reports the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring.buf)
}

// Dropped reports how many events were overwritten after the ring filled.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.dropped
}

// ErrText truncates an error for use as an attr: the timeline wants the
// cause, not a page of wrapped context.
func ErrText(err error) string {
	s := err.Error()
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}
