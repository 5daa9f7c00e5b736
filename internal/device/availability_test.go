package device

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func mustTrace(t *testing.T, sessions []Session) *AvailabilityTrace {
	t.Helper()
	tr, err := NewAvailabilityTrace(sessions)
	if err != nil {
		t.Fatalf("NewAvailabilityTrace: %v", err)
	}
	return tr
}

func TestTraceQueries(t *testing.T) {
	tr := mustTrace(t, []Session{{Start: 10, End: 20}, {Start: 30, End: 50}})
	for _, tc := range []struct {
		t    float64
		want bool
	}{
		{0, false}, {10, true}, {19.9, true}, {20, false}, {25, false}, {30, true}, {49, true}, {50, false},
	} {
		if got := tr.OnlineAt(tc.t); got != tc.want {
			t.Errorf("OnlineAt(%g) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if !tr.OnlineThrough(31, 49) {
		t.Error("OnlineThrough inside a session should hold")
	}
	if tr.OnlineThrough(15, 35) {
		t.Error("OnlineThrough across an offline gap should fail")
	}
	if tr.OnlineThrough(5, 15) {
		t.Error("OnlineThrough starting offline should fail")
	}
	if got := tr.OnlineFraction(100); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("OnlineFraction(100) = %g, want 0.3", got)
	}
}

func TestNilTraceAlwaysOnline(t *testing.T) {
	var tr *AvailabilityTrace
	if !tr.OnlineAt(123) || !tr.OnlineThrough(0, 1e9) || tr.OnlineFraction(10) != 1 {
		t.Error("nil trace must behave as always online")
	}
	var ts *TraceSet
	if ts.For(0) != nil || ts.Len() != 0 {
		t.Error("nil trace set must resolve every id to the nil trace")
	}
}

func TestTraceNormalizesTouchingSessions(t *testing.T) {
	tr := mustTrace(t, []Session{{Start: 0, End: 10}, {Start: 10, End: 20}})
	if got := tr.Sessions(); !reflect.DeepEqual(got, []Session{{Start: 0, End: 20}}) {
		t.Errorf("touching sessions should merge, got %v", got)
	}
	if !tr.OnlineThrough(5, 15) {
		t.Error("OnlineThrough must hold across a merged boundary")
	}
}

func TestTraceValidationFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sessions []Session
	}{
		{"negative start", []Session{{Start: -1, End: 5}}},
		{"inverted", []Session{{Start: 5, End: 1}}},
		{"empty", []Session{{Start: 5, End: 5}}},
		{"overlap", []Session{{Start: 0, End: 10}, {Start: 5, End: 20}}},
		{"out of order", []Session{{Start: 30, End: 40}, {Start: 0, End: 10}}},
		{"nan", []Session{{Start: math.NaN(), End: 5}}},
		{"inf", []Session{{Start: 0, End: math.Inf(1)}}},
	} {
		if _, err := NewAvailabilityTrace(tc.sessions); err == nil {
			t.Errorf("%s: want error, got none", tc.name)
		}
	}
}

func TestDiurnalDeterministicAndDutyCycled(t *testing.T) {
	m := DiurnalModel{Period: 200, DutyCycle: 0.5, Horizon: 1000}
	a, err := Diurnal(7, 16, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Diurnal(7, 16, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 16 {
		t.Fatalf("want 16 traces, got %d", a.Len())
	}
	var sum float64
	distinct := false
	first := a.For(0).Sessions()
	for id := 0; id < 16; id++ {
		if !reflect.DeepEqual(a.For(id).Sessions(), b.For(id).Sessions()) {
			t.Fatalf("device %d: same seed produced different traces", id)
		}
		frac := a.For(id).OnlineFraction(m.Horizon)
		// Phase clipping at the horizon edges perturbs each device a little;
		// the fleet average must sit at the duty cycle.
		if frac < 0.2 || frac > 0.8 {
			t.Errorf("device %d online fraction %g implausible for duty 0.5", id, frac)
		}
		sum += frac
		if id > 0 && !reflect.DeepEqual(a.For(id).Sessions(), first) {
			distinct = true
		}
	}
	if avg := sum / 16; math.Abs(avg-0.5) > 0.1 {
		t.Errorf("fleet mean online fraction %g, want ≈ 0.5", avg)
	}
	if !distinct {
		t.Error("every device got the same phase; schedules should spread")
	}
}

func TestSessionsGenerator(t *testing.T) {
	m := SessionModel{MeanOnline: 60, MeanOffline: 40, Horizon: 5000}
	a, err := Sessions(3, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sessions(3, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for id := 0; id < 8; id++ {
		if !reflect.DeepEqual(a.For(id).Sessions(), b.For(id).Sessions()) {
			t.Fatalf("device %d: same seed produced different traces", id)
		}
		sum += a.For(id).OnlineFraction(m.Horizon)
	}
	if avg := sum / 8; math.Abs(avg-0.6) > 0.15 {
		t.Errorf("fleet mean online fraction %g, want ≈ 0.6", avg)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := Diurnal(1, 0, DiurnalModel{Period: 1, DutyCycle: 0.5, Horizon: 1}); err == nil {
		t.Error("zero devices should fail")
	}
	if _, err := Diurnal(1, 4, DiurnalModel{Period: 0, DutyCycle: 0.5, Horizon: 1}); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := Diurnal(1, 4, DiurnalModel{Period: 10, DutyCycle: 1.5, Horizon: 1}); err == nil {
		t.Error("duty > 1 should fail")
	}
	if _, err := Diurnal(1, 4, DiurnalModel{Period: 10, DutyCycle: 0.5, Jitter: 0.4, Horizon: 1}); err == nil {
		t.Error("jitter wide enough to overlap sessions should fail")
	}
	if _, err := Sessions(1, 4, SessionModel{MeanOnline: 0, MeanOffline: 1, Horizon: 1}); err == nil {
		t.Error("zero mean should fail")
	}
}

func TestTraceSetJSONRoundTrip(t *testing.T) {
	ts, err := Diurnal(11, 5, DiurnalModel{Period: 100, DutyCycle: 0.6, Jitter: 0.1, Horizon: 400})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ts.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTraceSet(b)
	if err != nil {
		t.Fatalf("ParseTraceSet of our own encoding: %v", err)
	}
	if back.Len() != ts.Len() {
		t.Fatalf("round trip lost devices: %d → %d", ts.Len(), back.Len())
	}
	for _, id := range ts.IDs() {
		if !reflect.DeepEqual(back.For(id).Sessions(), ts.For(id).Sessions()) {
			t.Errorf("device %d sessions changed across the round trip", id)
		}
	}
}

func TestParseTraceSetFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"bad schema", `{"schema":"ecofl/churn-trace/v9","devices":[]}`, "schema"},
		{"missing schema", `{"devices":[]}`, "schema"},
		{"unknown field", `{"schema":"ecofl/churn-trace/v1","devices":[],"extra":1}`, "unknown field"},
		{"negative device", `{"schema":"ecofl/churn-trace/v1","devices":[{"device":-1,"sessions":[]}]}`, "negative device"},
		{"duplicate device", `{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[]},{"device":0,"sessions":[]}]}`, "twice"},
		{"negative timestamp", `{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[{"start_s":-5,"end_s":5}]}]}`, "negative"},
		{"inverted session", `{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[{"start_s":9,"end_s":3}]}]}`, "inverted"},
		{"overlap", `{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[{"start_s":0,"end_s":10},{"start_s":5,"end_s":15}]}]}`, "overlaps"},
		{"hostile duration", `{"schema":"ecofl/churn-trace/v1","devices":[{"device":0,"sessions":[{"start_s":0,"end_s":1e999}]}]}`, ""},
		{"truncated", `{"schema":"ecofl/churn-trace/v1","devices":[{"dev`, ""},
	} {
		_, err := ParseTraceSet([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: want error, got none", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
