package fl

// Trace-driven churn: when Config.Churn attaches availability traces
// (internal/device), the strategies stop modelling failure as a coin flip and
// start observing liveness. Selection sees only clients whose trace has them
// online, a selected client whose trace takes it offline before its report
// lands departs mid-round (its work is lost, exactly like a dropout), and a
// device coming back online is re-admitted automatically. The traces are
// pre-generated from their own seeds, so none of this consumes the strategy's
// rng stream — and with no trace attached every strategy runs the legacy
// path byte for byte.

import (
	"ecofl/internal/device"
	"ecofl/internal/obs/journal"
)

// churnState binds one run's availability traces to its result and journal.
// The nil state (no trace attached) is a nop on every method, mirroring the
// nil-recorder discipline of the journal.
type churnState struct {
	traces *device.TraceSet
	rec    *journal.Recorder
	res    *RunResult
}

// newChurnState returns the run's churn state, or nil when cfg.Churn is nil.
func newChurnState(cfg Config, res *RunResult) *churnState {
	if cfg.Churn == nil {
		return nil
	}
	return &churnState{traces: cfg.Churn, rec: cfg.Journal, res: res}
}

// sync reconciles each client's Offline flag with its trace at virtual time
// now — the membership observation a server makes before selecting. A client
// whose trace has gone dark is marked offline ("fl.offline"); one whose trace
// has come back is re-admitted ("fl.readmit", counted in Readmissions). round
// is the journal correlation id of the round about to start.
func (ch *churnState) sync(now float64, clients []*Client, round int) {
	if ch == nil {
		return
	}
	for _, c := range clients {
		online := ch.traces.For(c.ID).OnlineAt(now)
		switch {
		case !online && !c.Offline:
			c.Offline = true
			ch.rec.RecordAt(now, "fl.offline", round, c.ID)
		case online && c.Offline:
			c.Offline = false
			ch.res.Readmissions++
			ch.res.rm.readmits.Inc()
			ch.rec.RecordAt(now, "fl.readmit", round, c.ID)
		}
	}
}

// departs reports whether the client's trace takes it offline somewhere in
// [start, finish] — selected, dispatched, and gone before its report lands.
func (ch *churnState) departs(c *Client, start, finish float64) bool {
	if ch == nil {
		return false
	}
	return !ch.traces.For(c.ID).OnlineThrough(start, finish)
}
