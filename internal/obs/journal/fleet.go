package journal

import (
	"math"
	"sort"
	"sync"
)

// Fleet merges journals from many nodes into one causally-ordered timeline.
// The server owns one: its own lane records locally, and client journals
// arrive piggybacked on telemetry pushes, get shifted onto the server clock
// (ClockOffset), and land in a bounded imported ring. Re-delivered batches
// (telemetry snapshots are re-sent verbatim when a push is retried) are
// deduped with a Seq high-water mark per recorder instance — node and epoch —
// so a node that restarts under the same id lands its fresh Seq 1 onward. A
// nil *Fleet is a valid nop, like a nil *Recorder.
type Fleet struct {
	local *Recorder

	mu       sync.Mutex
	imported ring
	hwm      map[instance]uint64
	procs    map[int]string // imported nodes' process labels
}

// instance is one recorder's lifetime: a node id and the epoch it drew.
type instance struct {
	node  int
	epoch uint64
}

// NewFleet builds a fleet journal around the server's local recorder (which
// may be nil when the server lane itself does not record). capacity bounds
// the imported ring; <= 0 selects DefaultCapacity.
func NewFleet(capacity int, local *Recorder) *Fleet {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Fleet{local: local, imported: ring{max: capacity}, hwm: make(map[instance]uint64), procs: make(map[int]string)}
}

// Local returns the server-lane recorder (nil-safe).
func (f *Fleet) Local() *Recorder {
	if f == nil {
		return nil
	}
	return f.local
}

// ClockOffset returns the seconds to add to a remote node's timestamps to
// place them on the local clock, given that node's clock reading taken "now":
// remote TS + offset ≈ local time of the same instant (transit time is
// attributed to the offset, the best a one-way exchange can do). The offset
// is negative whenever the remote clock reads ahead of ours. Non-finite
// remote readings (hostile or uninitialized) yield offset 0 rather than
// poisoning the merge.
func (f *Fleet) ClockOffset(remoteNow float64) float64 {
	if f == nil || math.IsNaN(remoteNow) || math.IsInf(remoteNow, 0) {
		return 0
	}
	return f.local.Now() - remoteNow
}

// SetProcessName labels an imported node's process in a Chrome export (the
// export appends the node id).
func (f *Fleet) SetProcessName(node int, name string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.procs[node] = name
	f.mu.Unlock()
}

// Import merges a batch of events from one instance of a remote node's
// recorder, shifting timestamps by offset onto the local clock. Events whose
// Seq is at or below the instance's high-water mark are dropped as
// re-deliveries. Wire input is hostile input: an event whose shifted
// timestamp or duration is not finite is dropped, a negative duration counts
// as 0, and an event that would start before the local epoch (a negative
// offset: the remote clock ahead) is moved to start at 0, keeping its length.
func (f *Fleet) Import(node int, epoch uint64, offset float64, evs []Event) {
	if f == nil || len(evs) == 0 {
		return
	}
	if math.IsNaN(offset) || math.IsInf(offset, 0) {
		offset = 0
	}
	key := instance{node, epoch}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range evs {
		if e.Seq != 0 && e.Seq <= f.hwm[key] {
			continue // re-delivered on retry
		}
		if e.Seq > f.hwm[key] {
			f.hwm[key] = e.Seq
		}
		e.TS += offset
		if math.IsNaN(e.TS) || math.IsInf(e.TS, 0) || math.IsNaN(e.Dur) || math.IsInf(e.Dur, 0) {
			continue
		}
		e.Node = node
		e.Dur = max(e.Dur, 0)
		e.TS = max(e.TS, e.Dur)
		f.imported.push(e)
	}
}

// Events returns the merged timeline — local lane plus every imported node —
// sorted causally by (TS, Node, Seq).
func (f *Fleet) Events() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	imported := f.imported.events()
	f.mu.Unlock()
	return Merge(f.local.Events(), imported)
}

// Dropped reports imported events lost to ring overwrite (local-lane drops
// are reported by the local recorder itself).
func (f *Fleet) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.imported.dropped
}

// Nodes reports how many distinct remote nodes have imported events.
func (f *Fleet) Nodes() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	nodes := make(map[int]bool, len(f.hwm))
	for k := range f.hwm {
		nodes[k.node] = true
	}
	return len(nodes)
}

// Merge concatenates event batches and sorts them into causal order:
// primarily by timestamp, then by node, then by per-node sequence so
// same-instant events from one recorder keep their recording order.
func Merge(batches ...[]Event) []Event {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	out := make([]Event, 0, n)
	for _, b := range batches {
		out = append(out, b...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}

// Filter selects events for queries and the /events endpoint. Nil pointer
// fields match everything; Kind matches exactly or as a dotted prefix
// ("exec" matches "exec.heal"); Last keeps only the trailing N matches.
type Filter struct {
	Node   *int
	Round  *int
	Client *int
	Kind   string
	Last   int
}

// Match reports whether the event passes the filter (ignoring Last).
func (q Filter) Match(e Event) bool {
	if q.Node != nil && e.Node != *q.Node {
		return false
	}
	if q.Round != nil && e.Round != *q.Round {
		return false
	}
	if q.Client != nil && e.Client != *q.Client {
		return false
	}
	if q.Kind != "" && e.Kind != q.Kind {
		if len(e.Kind) <= len(q.Kind) || e.Kind[:len(q.Kind)] != q.Kind || e.Kind[len(q.Kind)] != '.' {
			return false
		}
	}
	return true
}

// Apply filters evs (which must already be ordered) and applies Last.
func Apply(evs []Event, q Filter) []Event {
	out := make([]Event, 0, len(evs))
	for _, e := range evs {
		if q.Match(e) {
			out = append(out, e)
		}
	}
	return Tail(out, q.Last)
}

// Tail returns the last n events (all of them when n <= 0).
func Tail(evs []Event, n int) []Event {
	if n <= 0 || len(evs) <= n {
		return evs
	}
	return evs[len(evs)-n:]
}
