package device

import (
	"math"
	"testing"
)

// FuzzParseTraceSet hammers the churn-trace parser with hostile documents.
// The invariant mirrors FuzzRequestDecode in flnet: the parser either rejects
// the input or returns a trace set whose every trace is fully normalized —
// finite, non-negative, strictly ordered sessions — and re-encodes to a
// document the parser accepts again. It must never panic and never let a
// malformed trace (negative timestamps, inverted or overlapping intervals,
// non-finite durations) through, because a silently-mangled availability
// schedule would run a different experiment than the one specified.
func FuzzParseTraceSet(f *testing.F) {
	f.Add([]byte(`{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[{"start_s":0,"end_s":3600}]}]}`))
	f.Add([]byte(`{"schema":"ecofl/churn-trace/v1","devices":[]}`))
	f.Add([]byte(`{"schema":"ecofl/churn-trace/v1","devices":[{"device":3,"sessions":[{"start_s":10,"end_s":20},{"start_s":20,"end_s":30}]}]}`))
	f.Add([]byte(`{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[{"start_s":-1,"end_s":5}]}]}`))
	f.Add([]byte(`{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[{"start_s":9,"end_s":3}]}]}`))
	f.Add([]byte(`{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[{"start_s":0,"end_s":10},{"start_s":5,"end_s":15}]}]}`))
	f.Add([]byte(`{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[{"start_s":0,"end_s":1e308},{"start_s":1e308,"end_s":1.5e308}]}]}`))
	f.Add([]byte(`{"schema":"ecofl/churn-trace/v2"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ParseTraceSet(data)
		if err != nil {
			return // rejected: fail-closed is the correct outcome
		}
		for _, id := range ts.IDs() {
			if id < 0 {
				t.Fatalf("accepted negative device id %d", id)
			}
			prevEnd := math.Inf(-1)
			for i, s := range ts.For(id).Sessions() {
				if math.IsNaN(s.Start) || math.IsInf(s.Start, 0) || math.IsNaN(s.End) || math.IsInf(s.End, 0) {
					t.Fatalf("device %d session %d has non-finite bounds [%g, %g)", id, i, s.Start, s.End)
				}
				if s.Start < 0 || s.End <= s.Start {
					t.Fatalf("device %d session %d is malformed [%g, %g)", id, i, s.Start, s.End)
				}
				if s.Start <= prevEnd {
					t.Fatalf("device %d session %d [%g, %g) not strictly after previous end %g", id, i, s.Start, s.End, prevEnd)
				}
				prevEnd = s.End
			}
			// Accepted traces must be queryable without panicking.
			tr := ts.For(id)
			tr.OnlineAt(0)
			tr.OnlineThrough(0, 1)
			tr.OnlineFraction(1)
		}
		// Accepted documents must survive a re-encode/re-parse round trip.
		enc, err := ts.EncodeJSON()
		if err != nil {
			t.Fatalf("EncodeJSON of an accepted trace set: %v", err)
		}
		if _, err := ParseTraceSet(enc); err != nil {
			t.Fatalf("re-parse of our own encoding: %v", err)
		}
	})
}
