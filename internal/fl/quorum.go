package fl

// Graceful degradation under client failure: a synchronous round no longer
// has to wait for — or even receive — every selected client. Each selected
// client may drop out with Config.DropoutProb (its work is lost) or, when
// Config.Churn attaches availability traces, depart because its trace goes
// dark mid-round; the round commits as soon as a Config.Quorum fraction of
// the selection has reported, aggregating sample-weighted over exactly those
// fastest reporters. The one lifecycle (run) applies the cut to every
// committee: the fleet-wide round and each group's intra-group round alike.

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"ecofl/internal/obs/journal"
)

// roundCut is the outcome of applying dropout and the quorum rule to one
// round's selection.
type roundCut struct {
	// committee holds the clients whose updates are aggregated, in the
	// original selection order (so a disabled cut aggregates in exactly the
	// legacy order and reproduces legacy curves bit for bit).
	committee []*Client
	// roundTime is the virtual time the round occupies: the latency of the
	// quorum-completing reporter, or the slowest selected client's latency
	// when every report is required or the round fails.
	roundTime float64
	dropouts  int  // selected clients that dropped out mid-round (coin flip)
	departed  int  // selected clients whose availability trace went dark mid-round
	discarded int  // survivors past the quorum whose finished work is discarded
	failed    bool // fewer than the quorum survived: no aggregation
}

// cutRound applies churn departures, cfg.DropoutProb and cfg.Quorum to a
// selection dispatched at virtual time now. Departure is read from the
// availability traces (ch nil means no churn) and consumes no randomness;
// dropout draws are consumed from rng in selection order, and only when
// DropoutProb is positive — with dropout disabled the random stream is
// untouched. With every feature disabled the cut is the identity: committee
// == sel in order, roundTime == the slowest selected latency.
func cutRound(rng *rand.Rand, cfg Config, ch *churnState, now float64, sel []*Client) roundCut {
	cut := roundCut{committee: sel}
	for _, c := range sel {
		if l := c.Latency(); l > cut.roundTime {
			cut.roundTime = l
		}
	}
	if len(sel) == 0 {
		return cut
	}

	survived := sel
	if cfg.DropoutProb > 0 || ch != nil {
		survived = make([]*Client, 0, len(sel))
		for _, c := range sel {
			if ch.departs(c, now, now+c.Latency()) {
				cut.departed++
				continue
			}
			if cfg.DropoutProb > 0 && rng.Float64() < cfg.DropoutProb {
				cut.dropouts++
				continue
			}
			survived = append(survived, c)
		}
	}

	quorum := cfg.Quorum
	if quorum <= 0 || quorum >= 1 {
		quorum = 1
	}
	need := int(math.Ceil(quorum * float64(len(sel))))
	if need < 1 {
		need = 1
	}
	if need > len(sel) {
		need = len(sel)
	}

	if len(survived) < need {
		// Quorum not reached: the aggregator waits out the whole round
		// window for reports that never come, then gives up.
		cut.failed = true
		cut.committee = nil
		return cut
	}
	if cfg.DropoutProb <= 0 && ch == nil && need == len(sel) {
		return cut // fully disabled: the identity cut
	}

	// The round commits when the need-th fastest survivor reports. The
	// stable sort keeps selection order among equal latencies, so committee
	// membership is deterministic; membership is then re-projected onto
	// selection order so aggregation arithmetic matches a legacy round over
	// the same clients.
	byLat := append([]*Client(nil), survived...)
	sort.SliceStable(byLat, func(i, j int) bool { return byLat[i].Latency() < byLat[j].Latency() })
	member := make(map[*Client]bool, need)
	for _, c := range byLat[:need] {
		member[c] = true
	}
	committee := make([]*Client, 0, need)
	for _, c := range survived {
		if member[c] {
			committee = append(committee, c)
		}
	}
	cut.committee = committee
	cut.discarded = len(survived) - need
	cut.roundTime = byLat[need-1].Latency()
	return cut
}

// journalCut records one cut's casualties into the flight recorder at the
// virtual time the round resolves (rec nil is a nop). round is the strategy's
// aggregation-event counter at the cut, the correlation id shared with the
// round-start/commit events around it.
func journalCut(rec *journal.Recorder, t float64, round int, cut roundCut) {
	if cut.dropouts > 0 {
		rec.RecordAt(t, "fl.dropout", round, journal.None, "count", strconv.Itoa(cut.dropouts))
	}
	if cut.departed > 0 {
		rec.RecordAt(t, "fl.depart", round, journal.None, "count", strconv.Itoa(cut.departed))
	}
	if cut.discarded > 0 {
		rec.RecordAt(t, "fl.quorum-burn", round, journal.None, "discarded", strconv.Itoa(cut.discarded))
	}
	if cut.failed {
		rec.RecordAt(t, "fl.quorum-fail", round, journal.None)
	}
}

// tally folds one cut's casualty counts into the result and its metrics. A
// failed quorum is counted where the failed round is closed (run).
func (r *RunResult) tally(cut roundCut) {
	r.Dropouts += cut.dropouts
	r.ChurnDepartures += cut.departed
	r.QuorumDiscarded += cut.discarded
	r.rm.dropouts.Add(int64(cut.dropouts))
	r.rm.departs.Add(int64(cut.departed))
	r.rm.discarded.Add(int64(cut.discarded))
}
