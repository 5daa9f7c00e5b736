package flnet

// Fleet telemetry: portals piggyback a snapshot of their local metrics
// registry and their unsent trace spans onto the push traffic they already
// send (plus an optional interval flush over the same connection, for nodes
// that push rarely). The server folds every snapshot into one node-labeled
// fleet registry and one merged wall-clock trace, so a single scrape of the
// server answers for the whole fleet and a single Chrome trace shows every
// node's lanes side by side. Telemetry is strictly read-only on the FL path:
// it never touches weights, rng state, or aggregation order, so training
// curves are byte-identical with it on or off (tested).

import (
	"maps"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
	"ecofl/internal/obs"
	"ecofl/internal/obs/journal"
)

// MetricPoint is one metric's state inside a telemetry snapshot. Histograms
// travel pre-digested (count/sum/p50/p99) rather than bucket-by-bucket: the
// fleet view re-exposes them as gauges, and shipping four floats per family
// keeps the piggyback payload tiny next to the model weights it rides with.
type MetricPoint struct {
	Family string   `json:"f"`
	Labels []string `json:"l,omitempty"` // alternating k, v in canonical order
	Kind   string   `json:"k"`           // "counter", "gauge" or "histogram"
	Value  float64  `json:"v,omitempty"` // counter/gauge value
	Count  int64    `json:"n,omitempty"` // histogram observation count
	Sum    float64  `json:"sum,omitempty"`
	P50    float64  `json:"p50,omitempty"`
	P99    float64  `json:"p99,omitempty"`
}

// TelemetrySnapshot is the payload a node attaches to a push or ships in a
// standalone "telemetry" request: the frame's trailer, as JSON (what /events,
// specs and reports speak), on bytes wire.ParseHeader has capped at
// Limits.MaxTrailer. Which node it is from is the frame's client id to say.
type TelemetrySnapshot struct {
	Proc string `json:"proc,omitempty"` // process label for the node's fleet-trace lane
	// NodeNow is the sender's trace clock at snapshot time; the receiver
	// derives the clock offset from it (obs.Trace.ClockOffset).
	NodeNow float64       `json:"now"`
	Metrics []MetricPoint `json:"m,omitempty"`
	Spans   []obs.Event   `json:"sp,omitempty"`
	// Journal is the tail of the node's flight recorder not yet shipped
	// (incremental, like Spans). JournalNow is the journal clock at snapshot
	// time, aligning events onto the server clock the same way NodeNow
	// aligns spans.
	Journal    []journal.Event `json:"j,omitempty"`
	JournalNow float64         `json:"jnow,omitempty"`
}

// telemetryState is a client's telemetry configuration, guarded by Client.mu
// (snapshots are built inside roundTrip, which already holds it, so the
// sent-spans high-water mark stays consistent between piggybacks and the
// background flusher).
type telemetryState struct {
	reg       *metrics.Registry
	trace     *obs.Trace
	proc      string
	sentSpans int
	// sentJournal is the Seq high-water mark of journal events already
	// shipped (the journal itself is Options.Journal). A retried request
	// re-sends the same snapshot verbatim; the server-side fleet journal
	// dedups by Seq, so re-delivery is harmless.
	sentJournal uint64
}

// EnableTelemetry starts shipping this node's metrics and trace spans to the
// server: every subsequent push carries a snapshot, and if every > 0 a
// background flusher also sends standalone snapshots on that interval (for
// long local-training gaps). reg defaults to metrics.Default; trace may be
// nil (metrics-only telemetry). The returned stop function halts the flusher
// and ships one final snapshot; it is idempotent.
func (c *Client) EnableTelemetry(reg *metrics.Registry, trace *obs.Trace, proc string, every time.Duration) (stop func()) {
	if reg == nil {
		reg = metrics.Default
	}
	c.mu.Lock()
	c.tel = &telemetryState{reg: reg, trace: trace, proc: proc}
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
// request. JSON has no NaN or Inf, so a metric point holding one is skipped
// and a span loses the offending arg; the rest of the snapshot travels.
// Caller holds c.mu and has checked c.tel != nil.
func (c *Client) telemetrySnapshotLocked() *TelemetrySnapshot {
	tel := c.tel
	snap := &TelemetrySnapshot{Proc: tel.proc, NodeNow: tel.trace.Now()}
	for _, s := range tel.reg.Snapshot() {
		mp := MetricPoint{Family: s.Family, Labels: s.Labels, Kind: s.Kind.String()}
		if s.Kind == metrics.KindHistogram {
			mp.Count = s.Count
			mp.Sum = s.Sum
			mp.P50 = metrics.QuantileFromBuckets(s.Buckets, 0.5)
			mp.P99 = metrics.QuantileFromBuckets(s.Buckets, 0.99)
		} else {
			mp.Value = s.Value
		}
		if finite(mp.Value, mp.Sum, mp.P50, mp.P99) {
			snap.Metrics = append(snap.Metrics, mp)
		}
	}
	if spans := tel.trace.EventsFrom(tel.sentSpans); len(spans) > 0 {
		tel.sentSpans += len(spans)
		for i, sp := range spans {
			for _, v := range sp.Args {
				if !finite(v) { // filter a copy: the trace keeps its own map
					spans[i].Args = maps.Clone(sp.Args)
					maps.DeleteFunc(spans[i].Args, func(_ string, v float64) bool { return !finite(v) })
					break
				}
			}
		}
		snap.Spans = spans
	}
	if rec := c.opts.Journal; rec != nil {
		snap.JournalNow = rec.Now()
		if evs := rec.EventsSince(tel.sentJournal); len(evs) > 0 {
			tel.sentJournal = evs[len(evs)-1].Seq
			snap.Journal = evs
		}
	}
	return snap
}

// Fleet is the server-side telemetry aggregator: node-labeled views of every
// reporting node's metrics, a merged wall-clock trace with one process lane
// per node, and a straggler detector fed by measured per-client push
// intervals. The fleet registry is separate from metrics.Default so remote
// families (re-exposed as gauges) can never collide with the same-named
// local instruments.
type Fleet struct {
	reg      *metrics.Registry
	trace    *obs.Trace
	detector *StragglerDetector
	journal  *journal.Fleet // nil unless ServerOptions.Journal was set

	mu       sync.Mutex
	lastPush map[int]float64 // trace-clock time of each client's last push
}

func newFleet() *Fleet {
	return &Fleet{
		reg:      metrics.NewRegistry(),
		trace:    obs.NewWall(),
		detector: NewStragglerDetector(metrics.Default, 0, 0),
		lastPush: make(map[int]float64),
	}
}

// Registry returns the node-labeled fleet metrics registry.
func (f *Fleet) Registry() *metrics.Registry { return f.reg }

// Trace returns the merged fleet trace (server clock; pid = node id).
func (f *Fleet) Trace() *obs.Trace { return f.trace }

// Straggler returns the detector fed by measured push intervals.
func (f *Fleet) Straggler() *StragglerDetector { return f.detector }

// Journal returns the merged fleet flight recorder (nil when journaling was
// not enabled on the server; journal.Fleet methods are nil-safe).
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
		mp := &snap.Metrics[i]
		if !validMetricPoint(mp) {
			continue
		}
		switch mp.Kind {
		case "histogram":
			f.nodeGauge(mp.Family+":count", mp.Labels, node).Set(float64(mp.Count))
			f.nodeGauge(mp.Family+":sum", mp.Labels, node).Set(mp.Sum)
			f.nodeGauge(mp.Family+":p50", mp.Labels, node).Set(mp.P50)
			f.nodeGauge(mp.Family+":p99", mp.Labels, node).Set(mp.P99)
		default:
			f.nodeGauge(mp.Family, mp.Labels, node).Set(mp.Value)
		}
	}
	if len(snap.Spans) > 0 {
		name := snap.Proc
		if name == "" {
			name = "node"
		}
		f.trace.SetProcessName(id, name+" "+node) // a map write: the lane carries its latest name
		f.trace.ImportEvents(id, f.trace.ClockOffset(snap.NodeNow), snap.Spans)
	}
	if len(snap.Journal) > 0 {
		f.journal.Import(id, f.journal.ClockOffset(snap.JournalNow), snap.Journal)
	}
}

// nodeGauge re-registers a remote metric as a gauge carrying the original
// labels plus node=<id>. Histogram-derived series use a ":" suffix separator
// (not "_") so a remote family can never alias another node's plain family.
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
	now := f.trace.Now()
	f.mu.Lock()
	last, seen := f.lastPush[client]
	f.lastPush[client] = now
	f.mu.Unlock()
	if seen {
		f.detector.Observe(client, now-last)
	}
}
