package flnet

// Telemetry-driven straggler detection: the server measures each client's
// real inter-push interval and runs it through the same EMA
// relative-deviation rule the adaptive pipeline monitor uses for stage
// slowdowns (internal/adaptive, §4.4) — one deviation rule for both the
// intra-portal and the fleet scale. A client is straggling when its latest
// measured round latency deviates from its smoothed history beyond the
// threshold in the slow direction (speeding up deviates too, but is not
// straggling). Results are exported as ecofl_straggler{client=...} gauges so
// the dashboard and scrapes see flags the moment they flip.

import (
	"strconv"
	"sync"

	"ecofl/internal/adaptive"
	"ecofl/internal/metrics"
)

// StragglerDetector flags clients whose measured per-round latency deviates
// slow from their own history. Safe for concurrent use.
type StragglerDetector struct {
	mu         sync.Mutex
	mon        adaptive.Monitor
	reg        *metrics.Registry
	flags      map[int]*metrics.Gauge // ecofl_straggler{client=...}: 1 straggling, 0 not
	latencies  map[int]*metrics.Gauge // last measured latency per client
	straggling map[int]bool
}

// NewStragglerDetector builds a detector exporting its gauges on reg
// (metrics.Default when nil). threshold is the relative deviation that flags
// a client; zero takes the adaptive monitor's default, 0.25. Latencies are
// smoothed by adaptive.Smooth.
func NewStragglerDetector(reg *metrics.Registry, threshold float64) *StragglerDetector {
	if reg == nil {
		reg = metrics.Default
	}
	return &StragglerDetector{
		mon:        adaptive.Monitor{Threshold: threshold},
		reg:        reg,
		flags:      make(map[int]*metrics.Gauge),
		latencies:  make(map[int]*metrics.Gauge),
		straggling: make(map[int]bool),
	}
}

// SetThreshold adjusts the deviation threshold (zero keeps the current
// value). Call before observations start.
func (d *StragglerDetector) SetThreshold(threshold float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if threshold > 0 {
		d.mon.Threshold = threshold
	}
}

// Observe feeds one measured round latency (seconds) for a client and
// reports whether the client is now considered straggling. Negative client
// ids are ignored (reported as not straggling).
func (d *StragglerDetector) Observe(client int, latency float64) bool {
	if client < 0 || latency < 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	dev, slower := d.mon.Check(client, latency)
	straggling := slower && d.mon.Exceeds(dev)
	d.straggling[client] = straggling

	label := strconv.Itoa(client)
	flag, ok := d.flags[client]
	if !ok {
		flag = d.reg.Gauge("ecofl_straggler",
			"1 when the client's measured push interval deviates slow beyond threshold", "client", label)
		d.flags[client] = flag
	}
	if straggling {
		flag.Set(1)
	} else {
		flag.Set(0)
	}
	lat, ok := d.latencies[client]
	if !ok {
		lat = d.reg.Gauge("ecofl_node_push_interval_seconds",
			"measured wall-clock gap between the client's consecutive pushes", "client", label)
		d.latencies[client] = lat
	}
	lat.Set(latency)
	return straggling
}

// MeasuredLatency returns the EMA-smoothed round latency for a client
// (0 if the client has never been observed).
func (d *StragglerDetector) MeasuredLatency(client int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if client < 0 {
		return 0
	}
	return d.mon.History(client)
}

// MeasuredLatencies returns every observed client's smoothed latency —
// the measured substitute for configured per-client latency constants when
// forming latency-homogeneous groups (internal/fl grouping).
func (d *StragglerDetector) MeasuredLatencies() map[int]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int]float64, len(d.straggling))
	for c := range d.straggling {
		if h := d.mon.History(c); h > 0 {
			out[c] = h
		}
	}
	return out
}
