package device

// Device availability under churn: diurnal on/off traces and session-length
// models for the fleets Eco-FL actually runs on, where a participant is a
// phone or a home portal that comes and goes with its owner's day rather
// than a rack server that crashes. A trace is a sorted list of online
// sessions on the simulation's virtual clock; everything downstream — the
// fl strategies' mid-round departure semantics, the flnet lease reaper, the
// scenario harness's churn soaks — queries the same three primitives
// (OnlineAt, OnlineThrough, NextOnline), so one seeded trace drives identical
// behaviour across the simulator and the transport. Traces also round-trip
// through a fail-closed JSON format (ecofl/churn-trace/v1) so a measured
// fleet's availability can be replayed from a scenario spec.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
)

// Session is one contiguous online interval [Start, End) in virtual seconds.
type Session struct {
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

// AvailabilityTrace is one device's availability schedule: sorted,
// non-overlapping online sessions. The nil trace means "always online", so
// devices without a trace attached behave exactly as before churn existed.
type AvailabilityTrace struct {
	sessions []Session
}

// NewAvailabilityTrace validates and normalizes a session list into a trace:
// sessions must be finite, non-negative, non-empty intervals in strictly
// non-overlapping ascending order (touching sessions are merged). Anything
// else is rejected — availability is safety-relevant state, so the
// constructor fails closed like the scenario spec parser.
func NewAvailabilityTrace(sessions []Session) (*AvailabilityTrace, error) {
	norm := make([]Session, 0, len(sessions))
	prevEnd := 0.0
	for i, s := range sessions {
		if math.IsNaN(s.Start) || math.IsInf(s.Start, 0) || math.IsNaN(s.End) || math.IsInf(s.End, 0) {
			return nil, fmt.Errorf("device: session %d has non-finite bounds [%g, %g)", i, s.Start, s.End)
		}
		if s.Start < 0 {
			return nil, fmt.Errorf("device: session %d starts at negative time %g", i, s.Start)
		}
		if s.End <= s.Start {
			return nil, fmt.Errorf("device: session %d is empty or inverted [%g, %g)", i, s.Start, s.End)
		}
		if i > 0 && s.Start < prevEnd {
			return nil, fmt.Errorf("device: session %d [%g, %g) overlaps or precedes the previous end %g", i, s.Start, s.End, prevEnd)
		}
		if len(norm) > 0 && s.Start == norm[len(norm)-1].End {
			norm[len(norm)-1].End = s.End // touching sessions merge
		} else {
			norm = append(norm, s)
		}
		prevEnd = s.End
	}
	return &AvailabilityTrace{sessions: norm}, nil
}

// sessionAt returns the index of the session containing t, or -1.
func (tr *AvailabilityTrace) sessionAt(t float64) int {
	i := sort.Search(len(tr.sessions), func(i int) bool { return tr.sessions[i].End > t })
	if i < len(tr.sessions) && tr.sessions[i].Start <= t {
		return i
	}
	return -1
}

// OnlineAt reports whether the device is online at virtual time t. The nil
// trace is always online.
func (tr *AvailabilityTrace) OnlineAt(t float64) bool {
	if tr == nil {
		return true
	}
	return tr.sessionAt(t) >= 0
}

// OnlineThrough reports whether the device stays online continuously over
// [from, to] — the survival condition for a client dispatched at from that
// reports at to. The nil trace always survives.
func (tr *AvailabilityTrace) OnlineThrough(from, to float64) bool {
	if tr == nil {
		return true
	}
	if to < from {
		from, to = to, from
	}
	i := tr.sessionAt(from)
	return i >= 0 && tr.sessions[i].End >= to
}

// TraceSet maps device (client) IDs to availability traces. The zero/nil set
// and any ID without a trace resolve to the always-online nil trace, so a
// partial trace file degrades to "untraced devices never churn".
type TraceSet struct {
	traces map[int]*AvailabilityTrace
}

// NewTraceSet builds a set from an ID → trace map (nil entries are dropped).
func NewTraceSet(traces map[int]*AvailabilityTrace) *TraceSet {
	ts := &TraceSet{traces: make(map[int]*AvailabilityTrace, len(traces))}
	for id, tr := range traces {
		if tr != nil {
			ts.traces[id] = tr
		}
	}
	return ts
}

// For returns the trace for one device; nil (always online) when the set or
// the device has none.
func (ts *TraceSet) For(id int) *AvailabilityTrace {
	if ts == nil {
		return nil
	}
	return ts.traces[id]
}

// Len returns how many devices carry a trace.
func (ts *TraceSet) Len() int {
	if ts == nil {
		return 0
	}
	return len(ts.traces)
}

// ---------------------------------------------------------------- generators

// DiurnalModel parameterizes the seeded diurnal generator: each device is
// online for DutyCycle of every Period, at a per-device random phase (so the
// fleet's wake times spread across the day instead of churning in lockstep),
// with each session boundary jittered by ±Jitter·Period.
type DiurnalModel struct {
	Period    float64 // day length in virtual seconds (> 0)
	DutyCycle float64 // fraction of each period online, in (0, 1]
	Jitter    float64 // boundary jitter as a fraction of Period, in [0, 0.5·(1−DutyCycle)]
	Horizon   float64 // trace length in virtual seconds (> 0)
}

// Diurnal generates one availability trace per device id in [0, n) from the
// model, deterministically from seed: same seed, same fleet-wide schedule.
func Diurnal(seed int64, n int, m DiurnalModel) (*TraceSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("device: diurnal trace count must be positive (got %d)", n)
	}
	if m.Period <= 0 || m.Horizon <= 0 {
		return nil, fmt.Errorf("device: diurnal period and horizon must be positive (period %g, horizon %g)", m.Period, m.Horizon)
	}
	if m.DutyCycle <= 0 || m.DutyCycle > 1 {
		return nil, fmt.Errorf("device: diurnal duty cycle must be in (0, 1] (got %g)", m.DutyCycle)
	}
	maxJitter := (1 - m.DutyCycle) / 2
	if m.Jitter < 0 || m.Jitter > maxJitter {
		return nil, fmt.Errorf("device: diurnal jitter must be in [0, %g] (got %g)", maxJitter, m.Jitter)
	}
	rng := rand.New(rand.NewSource(seed))
	traces := make(map[int]*AvailabilityTrace, n)
	for id := 0; id < n; id++ {
		phase := rng.Float64() * m.Period
		var sessions []Session
		for day := -1.0; day*m.Period+phase < m.Horizon; day++ {
			start := day*m.Period + phase
			end := start + m.DutyCycle*m.Period
			if m.Jitter > 0 {
				start += (rng.Float64()*2 - 1) * m.Jitter * m.Period
				end += (rng.Float64()*2 - 1) * m.Jitter * m.Period
			}
			start = math.Max(start, 0)
			end = math.Min(end, m.Horizon)
			if end > start {
				sessions = append(sessions, Session{Start: start, End: end})
			}
		}
		if m.DutyCycle == 1 {
			// No offline gap, whatever the phase. The days above make one
			// session only if each day's end and the next day's start, one
			// instant computed two ways, agree to the last bit. They do not:
			// some pairs overlap by an ulp and some leave an ulp's gap.
			sessions = []Session{{Start: 0, End: m.Horizon}}
		}
		tr, err := NewAvailabilityTrace(sessions)
		if err != nil {
			return nil, fmt.Errorf("device: diurnal trace for device %d: %w", id, err)
		}
		traces[id] = tr
	}
	return NewTraceSet(traces), nil
}

// SessionModel parameterizes the seeded session-length generator: devices
// alternate between online and offline sessions with exponentially
// distributed lengths — the memoryless come-and-go of opportunistic
// participants, as opposed to the periodic rhythm of DiurnalModel.
type SessionModel struct {
	MeanOnline  float64 // mean online session length in virtual seconds (> 0)
	MeanOffline float64 // mean offline gap length in virtual seconds (> 0)
	Horizon     float64 // trace length in virtual seconds (> 0)
}

// Sessions generates one alternating online/offline trace per device id in
// [0, n), deterministically from seed. Each device starts online with the
// model's stationary probability MeanOnline/(MeanOnline+MeanOffline).
func Sessions(seed int64, n int, m SessionModel) (*TraceSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("device: session trace count must be positive (got %d)", n)
	}
	if m.MeanOnline <= 0 || m.MeanOffline <= 0 || m.Horizon <= 0 {
		return nil, fmt.Errorf("device: session model means and horizon must be positive (online %g, offline %g, horizon %g)",
			m.MeanOnline, m.MeanOffline, m.Horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	traces := make(map[int]*AvailabilityTrace, n)
	for id := 0; id < n; id++ {
		var sessions []Session
		t := 0.0
		online := rng.Float64() < m.MeanOnline/(m.MeanOnline+m.MeanOffline)
		for t < m.Horizon {
			if online {
				end := math.Min(t+rng.ExpFloat64()*m.MeanOnline, m.Horizon)
				if end > t {
					sessions = append(sessions, Session{Start: t, End: end})
				}
				t = end
			} else {
				t += rng.ExpFloat64() * m.MeanOffline
			}
			online = !online
		}
		tr, err := NewAvailabilityTrace(sessions)
		if err != nil {
			return nil, fmt.Errorf("device: session trace for device %d: %w", id, err)
		}
		traces[id] = tr
	}
	return NewTraceSet(traces), nil
}

// ---------------------------------------------------------------- JSON

// TraceSchema versions the churn-trace JSON format.
const TraceSchema = "ecofl/churn-trace/v1"

// traceFile is the on-disk shape of a trace set.
type traceFile struct {
	Schema  string        `json:"schema"`
	Devices []deviceTrace `json:"devices"`
}

type deviceTrace struct {
	Device   int       `json:"device"`
	Sessions []Session `json:"sessions"`
}

// ParseTraceSet decodes and validates an ecofl/churn-trace/v1 document.
// Unknown fields, a wrong schema, negative device IDs, duplicate devices and
// malformed sessions (negative timestamps, empty or inverted intervals,
// overlaps, non-finite bounds) are all rejected — a hostile or truncated
// trace must fail loudly, never silently run a different fleet.
func ParseTraceSet(b []byte) (*TraceSet, error) {
	var f traceFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("device: churn trace: %w", err)
	}
	if f.Schema != TraceSchema {
		return nil, fmt.Errorf("device: churn trace schema %q is not %q", f.Schema, TraceSchema)
	}
	traces := make(map[int]*AvailabilityTrace, len(f.Devices))
	for _, d := range f.Devices {
		if d.Device < 0 {
			return nil, fmt.Errorf("device: churn trace has negative device id %d", d.Device)
		}
		if _, dup := traces[d.Device]; dup {
			return nil, fmt.Errorf("device: churn trace lists device %d twice", d.Device)
		}
		tr, err := NewAvailabilityTrace(d.Sessions)
		if err != nil {
			return nil, fmt.Errorf("device: churn trace device %d: %w", d.Device, err)
		}
		traces[d.Device] = tr
	}
	return NewTraceSet(traces), nil
}

// LoadTraceSet reads and validates a churn-trace file.
func LoadTraceSet(path string) (*TraceSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("device: churn trace: %w", err)
	}
	ts, err := ParseTraceSet(b)
	if err != nil {
		return nil, fmt.Errorf("device: %s: %w", path, err)
	}
	return ts, nil
}
