// Package journal is a flight recorder: a bounded ring of typed structured
// events with a nil-safe nop recorder, mirroring the obs.Trace discipline.
// Every subsystem that can misbehave under chaos (fl strategies, flnet client
// and server, the pipeline executor, simnet fault injection) records small
// correlated events — round, client, kind, free-form attrs — so a failing
// soak can be replayed as a causally-ordered cross-node timeline instead of
// being diagnosed from aggregate metrics alone.
//
// Design points:
//
//   - All Recorder methods are nil-safe: a nil *Recorder is a nop at ~0 cost
//     (a nil check and a return), so call sites never guard.
//   - The ring is bounded: once full, the oldest event is overwritten and a
//     dropped counter advances. A flight recorder keeps the *latest* history.
//   - Seq is a per-recorder monotonic sequence. It survives ring wrap, orders
//     events with identical timestamps, and lets importers (journal.Fleet)
//     dedup re-delivered batches (telemetry snapshots are re-sent verbatim on
//     network retry).
//   - Clocks are pluggable so virtual-time simulations (internal/fl) can
//     stamp events on the simulated clock via RecordAt while wall-clock
//     subsystems use New's monotonic wall clock.
package journal

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// None marks a Round or Client field as not applicable to the event.
const None = -1

// DefaultCapacity is the ring size used when a caller passes capacity <= 0.
const DefaultCapacity = 4096

// Event is one recorded occurrence. TS is seconds on the recorder's clock
// (wall time relative to recorder start, or virtual simulation time); Node
// identifies the recording process in a fleet (client id, or -1 for the
// server lane, matching the trace pid convention); Seq is the per-node
// monotonic sequence number; Round and Client carry correlation ids (None
// when not applicable); Kind is a dotted event name from the taxonomy in
// DESIGN.md ("chaos.inject", "exec.heal", ...); Attrs holds event-specific
// detail as strings.
type Event struct {
	TS     float64           `json:"ts"`
	Node   int               `json:"node"`
	Seq    uint64            `json:"seq"`
	Round  int               `json:"round"`
	Client int               `json:"client"`
	Kind   string            `json:"kind"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Recorder is a bounded, concurrency-safe event ring. The zero value is not
// usable; construct with New or NewClock. A nil *Recorder is a valid nop.
type Recorder struct {
	clock    func() float64 // nil => clockless: Record stamps 0, use RecordAt
	node     int
	disabled atomic.Bool

	mu      sync.Mutex
	ring    []Event
	max     int // ring capacity
	next    int // overwrite cursor once len(ring) == max
	seq     uint64
	dropped uint64
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
	return &Recorder{clock: clock, node: node, max: capacity}
}

// Now reads the recorder's clock (0 for nil or clockless recorders). It is
// handed to peers as a shared clock and to journal.Fleet for offset math.
func (r *Recorder) Now() float64 {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock()
}

// SetDisabled toggles recording at runtime. A disabled recorder keeps its
// buffered events but ignores new ones; the check is a single atomic load so
// the disabled cost is within noise of the nil nop.
func (r *Recorder) SetDisabled(v bool) {
	if r == nil {
		return
	}
	r.disabled.Store(v)
}

// Record appends an event stamped with the recorder's clock. kv is an
// alternating key/value list; an odd trailing key is paired with "". Use
// journal.None for a non-applicable round or client.
func (r *Recorder) Record(kind string, round, client int, kv ...string) {
	if r == nil || r.disabled.Load() {
		return
	}
	r.RecordAt(r.Now(), kind, round, client, kv...)
}

// RecordAt is Record with an explicit timestamp, for virtual-time callers.
func (r *Recorder) RecordAt(ts float64, kind string, round, client int, kv ...string) {
	if r == nil || r.disabled.Load() {
		return
	}
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
	e := Event{TS: ts, Node: r.node, Seq: r.seq, Round: round, Client: client, Kind: kind, Attrs: attrs}
	if len(r.ring) < r.max {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
		r.next++
		if r.next == r.max {
			r.next = 0
		}
		r.dropped++
	}
	r.mu.Unlock()
}

// Events returns the buffered events oldest-first. The slice is a copy.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
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
	for _, chunk := range [2][]Event{r.ring[r.next:], r.ring[:r.next]} {
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
	return len(r.ring)
}

// Dropped reports how many events were overwritten after the ring filled.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Total reports how many events were ever recorded (buffered + dropped).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
