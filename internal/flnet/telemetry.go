package flnet

// Fleet telemetry: portals piggyback a snapshot of their local metrics
// registry and their unsent journal events and spans onto the push traffic
// they already send (plus an optional interval flush over the same
// connection, for nodes that push rarely). The server folds every snapshot
// into one node-labeled fleet registry and its fleet journal, so a single
// scrape of the server answers for the whole fleet and a single Chrome trace
// shows every node's lanes side by side. Telemetry is strictly read-only on
// the FL path: it never touches weights, rng state, or aggregation order, so
// training curves are byte-identical with it on or off (tested).

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
	"ecofl/internal/obs/journal"
)

// MetricPoint is one scalar of a node's metrics: a counter's or gauge's
// value, or one of a histogram's digested count/sum/p50/p99 (family
// "name:p50" and so on, metrics.Sample.Digest). The fleet view re-exposes
// every point as a gauge, and four floats per histogram keep the piggyback
// payload tiny next to the model weights it rides with.
type MetricPoint struct {
	Family string   `json:"f"`
	Labels []string `json:"l,omitempty"` // alternating k, v in canonical order
	Value  float64  `json:"v,omitempty"`
}

// TelemetrySnapshot is the payload a node attaches to a push or ships in a
// standalone "telemetry" request: the frame's trailer, as JSON (what /events,
// specs and reports speak), on bytes wire.ParseHeader has capped at
// Limits.MaxTrailer. Which node it is from is the frame's client id to say.
type TelemetrySnapshot struct {
	Proc    string        `json:"proc,omitempty"` // process label for the node's fleet-trace lane
	Metrics []MetricPoint `json:"m,omitempty"`
	// Journal is the tail of the node's recorder not yet shipped: events and
	// spans alike. JournalNow is the recorder's clock at snapshot time, from
	// which the server derives the clock offset (journal.Fleet.ClockOffset);
	// Epoch names the recorder instance, so a portal restarted under the same
	// id is not deduped against its predecessor's Seqs.
	Journal    []journal.Event `json:"j,omitempty"`
	JournalNow float64         `json:"jnow,omitempty"`
	Epoch      uint64          `json:"je,omitempty"`
}

// telemetryState is a client's telemetry configuration, guarded by Client.mu
// (snapshots are built inside roundTrip, which already holds it, so the
// sent-journal high-water mark stays consistent between piggybacks and the
// background flusher).
type telemetryState struct {
	reg     *metrics.Registry
	journal *journal.Recorder
	proc    string
	// sentJournal is the Seq high-water mark of journal events already
	// shipped. A retried request re-sends the same snapshot verbatim; the
	// server-side fleet journal dedups by Seq, so re-delivery is harmless.
	sentJournal uint64
}

// EnableTelemetry starts shipping this node's metrics and journal to the
// server: every subsequent push carries a snapshot, and if every > 0 a
// background flusher also sends standalone snapshots on that interval (for
// long local-training gaps). reg defaults to metrics.Default and rec to
// Options.Journal; with neither journal the telemetry is metrics only. The
// returned stop function halts the flusher and ships one final snapshot; it
// is idempotent.
func (c *Client) EnableTelemetry(reg *metrics.Registry, rec *journal.Recorder, proc string, every time.Duration) (stop func()) {
	if reg == nil {
		reg = metrics.Default
	}
	if rec == nil {
		rec = c.opts.Journal
	}
	c.mu.Lock()
	c.tel = &telemetryState{reg: reg, journal: rec, proc: proc}
	c.mu.Unlock()

	done := make(chan struct{})
	var wg sync.WaitGroup
	if every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if c.FlushTelemetry() != nil {
						return // connection gone; the portal will notice too
					}
				}
			}
		}()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			_ = c.FlushTelemetry() // ship the tail
		})
	}
}

// FlushTelemetry sends a standalone telemetry snapshot now. It is a no-op
// before EnableTelemetry.
func (c *Client) FlushTelemetry() error {
	c.mu.Lock()
	enabled := c.tel != nil
	c.mu.Unlock()
	if !enabled {
		return nil
	}
	_, err := c.roundTrip(&request{Kind: wire.KindTelemetry, ClientID: c.ID})
	return err
}

// finite reports whether every v is a number JSON can carry.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// telemetrySnapshotLocked builds the snapshot attached to an outgoing
// request. A metric travels as the values its sample Digests into, so one
// holding a NaN or Inf stays home and the rest of the snapshot travels.
// Caller holds c.mu and has checked c.tel != nil.
func (c *Client) telemetrySnapshotLocked() *TelemetrySnapshot {
	tel := c.tel
	snap := &TelemetrySnapshot{Proc: tel.proc}
	for _, s := range tel.reg.Snapshot() {
		s.Digest(func(family string, v float64) {
			snap.Metrics = append(snap.Metrics, MetricPoint{Family: family, Labels: s.Labels, Value: v})
		})
	}
	if rec := tel.journal; rec != nil {
		snap.JournalNow, snap.Epoch = rec.Now(), rec.Epoch()
		if evs := rec.EventsSince(tel.sentJournal); len(evs) > 0 {
			tel.sentJournal = evs[len(evs)-1].Seq
			snap.Journal = evs
		}
	}
	return snap
}

// Fleet is the server-side telemetry aggregator: node-labeled views of every
// reporting node's metrics, the fleet journal (one node lane per portal, on
// the server clock), and a straggler detector fed by measured per-client push
// intervals. The fleet registry is separate from metrics.Default so remote
// families (re-exposed as gauges) can never collide with the same-named
// local instruments.
type Fleet struct {
	reg      *metrics.Registry
	detector *StragglerDetector
	journal  *journal.Fleet // nil unless ServerOptions.Journal was set

	mu       sync.Mutex
	lastPush map[int]time.Time // monotonic time of each client's last push
}

func newFleet() *Fleet {
	return &Fleet{
		reg:      metrics.NewRegistry(),
		detector: NewStragglerDetector(metrics.Default, 0),
		lastPush: make(map[int]time.Time),
	}
}

// Registry returns the node-labeled fleet metrics registry.
func (f *Fleet) Registry() *metrics.Registry { return f.reg }

// Straggler returns the detector fed by measured push intervals.
func (f *Fleet) Straggler() *StragglerDetector { return f.detector }

// Journal returns the merged fleet recorder — events and spans, node = client
// id, the server on -1 — or nil when journaling was not enabled on the
// server (journal.Fleet methods are nil-safe).
func (f *Fleet) Journal() *journal.Fleet { return f.journal }

// validMetricPoint rejects wire-supplied names the registry would refuse
// (it panics on malformed label names — correct for in-process bugs, fatal
// if a remote node could trigger it). Label *values* pass through freely;
// the exposition writer escapes them.
func validMetricPoint(mp *MetricPoint) bool {
	if mp.Family == "" || strings.ContainsAny(mp.Family, "{}\",= \n") {
		return false
	}
	if len(mp.Labels)%2 != 0 {
		return false
	}
	for i := 0; i+1 < len(mp.Labels); i += 2 {
		k := mp.Labels[i]
		if k == "" || strings.ContainsAny(k, `{}",=`) || k == "node" {
			return false
		}
	}
	return true
}

// ingest merges a snapshot into the fleet views of the node whose
// connection delivered it: id is the frame's client id, never a value the
// snapshot itself supplies, so no portal can write another node's lane.
func (f *Fleet) ingest(id int, snap *TelemetrySnapshot) {
	node := strconv.Itoa(id)
	for i := range snap.Metrics {
		if mp := &snap.Metrics[i]; validMetricPoint(mp) {
			f.nodeGauge(mp.Family, mp.Labels, node).Set(mp.Value)
		}
	}
	if len(snap.Journal) > 0 {
		f.journal.SetProcessName(id, snap.Proc) // the lane carries its latest name
		f.journal.Import(id, snap.Epoch, f.journal.ClockOffset(snap.JournalNow), snap.Journal)
	}
}

// nodeGauge re-registers a remote metric as a gauge carrying the original
// labels plus node=<id>. A histogram's digested families carry a ":" suffix
// (not "_"), so a remote family can never alias another node's plain family.
func (f *Fleet) nodeGauge(family string, labels []string, node string) *metrics.Gauge {
	kv := make([]string, 0, len(labels)+2)
	kv = append(kv, labels...)
	kv = append(kv, "node", node)
	return f.reg.Gauge(family, "fleet view of a node-local metric", kv...)
}

// observePush feeds the straggler detector with the measured wall-clock gap
// between a client's consecutive pushes — the client's real end-to-end round
// latency (local training + uplink), measured where it matters: at the
// aggregator.
func (f *Fleet) observePush(client int) {
	if client < 0 {
		return
	}
	now := time.Now()
	f.mu.Lock()
	last, seen := f.lastPush[client]
	f.lastPush[client] = now
	f.mu.Unlock()
	if seen {
		f.detector.Observe(client, now.Sub(last).Seconds())
	}
}
