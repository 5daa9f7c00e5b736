package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Satellite: the event buffer is bounded. Events past the cap are dropped
// (newest-first) and counted; the Chrome export stays valid.
func TestTraceEventCapDropsAndCounts(t *testing.T) {
	tr := New(nil)
	tr.SetMaxEvents(3)
	for i := 0; i < 5; i++ {
		tr.Span(1, 0, "s", "c", float64(i), float64(i)+0.5, nil)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	// Drop-newest: the first three spans survive, indexes stay stable for
	// EventsFrom high-water-mark readers.
	evs := tr.Events()
	for i, e := range evs {
		if e.Start != float64(i) {
			t.Fatalf("evs[%d].Start = %v, want %v (drop-newest violated)", i, e.Start, float64(i))
		}
	}
	if got := tr.EventsFrom(2); len(got) != 1 || got[0].Start != 2 {
		t.Fatalf("EventsFrom(2) after truncation = %+v", got)
	}

	// The truncated trace still exports as valid Chrome JSON with 3 spans.
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("truncated trace not valid JSON: %v", err)
	}
	spans := 0
	for _, e := range out.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans != 3 {
		t.Fatalf("exported %d spans, want 3", spans)
	}
}

func TestTraceUnboundedWhenCapZero(t *testing.T) {
	tr := New(nil)
	tr.SetMaxEvents(2)
	tr.SetMaxEvents(0)
	for i := 0; i < 10; i++ {
		tr.Span(1, 0, "m", "c", 0, 0, nil)
	}
	if tr.Len() != 10 || tr.Dropped() != 0 {
		t.Fatalf("unbounded trace Len=%d Dropped=%d, want 10/0", tr.Len(), tr.Dropped())
	}
	var nilTrace *Trace
	nilTrace.SetMaxEvents(5)
	if nilTrace.Dropped() != 0 {
		t.Fatal("nil trace Dropped != 0")
	}
}

// Satellite: negative clock offsets — the remote clock reads *ahead* of
// ours, so imported timestamps shift backward; starts that would land before
// the local epoch clamp to 0.
func TestImportEventsNegativeOffset(t *testing.T) {
	local := New(nil)
	local.Span(0, 0, "local", "c", 0, 1, nil)

	remote := New(nil)
	remote.Span(9, 0, "late", "c", 100.0, 100.5, nil)
	remote.Span(9, 0, "early", "c", 2.0, 2.5, nil)

	offset := local.ClockOffset(103.0) // local.Now()=0 (clockless) → offset = -103
	if offset != -103.0 {
		t.Fatalf("offset = %v, want -103", offset)
	}
	local.ImportEvents(4, offset, remote.Events())
	evs := local.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	late, early := evs[1], evs[2]
	if late.Start != 0 {
		t.Fatalf("late.Start = %v, want clamp to 0 (100-103 < 0)", late.Start)
	}
	if late.Dur != 0.5 {
		t.Fatalf("late.Dur = %v, want 0.5 untouched by clamp", late.Dur)
	}
	if early.Start != 0 {
		t.Fatalf("early.Start = %v, want clamp to 0", early.Start)
	}
}

func TestImportEventsSanitizesHostileInputs(t *testing.T) {
	tr := New(nil)
	if off := tr.ClockOffset(math.NaN()); off != 0 {
		t.Fatalf("ClockOffset(NaN) = %v, want 0", off)
	}
	if off := tr.ClockOffset(math.Inf(-1)); off != 0 {
		t.Fatalf("ClockOffset(-Inf) = %v, want 0", off)
	}
	tr.ImportEvents(1, math.NaN(), []Event{{Name: "a", Start: 1, Dur: 1}})
	tr.ImportEvents(1, 0, []Event{
		{Name: "bad-start", Start: math.Inf(1), Dur: 1},
		{Name: "bad-dur", Start: 1, Dur: math.NaN()},
		{Name: "neg-dur", Start: 1, Dur: -5},
		{Name: "ok", Start: 2, Dur: 1},
	})
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (a, neg-dur, ok): %+v", len(evs), evs)
	}
	if evs[0].Name != "a" || evs[0].Start != 1 {
		t.Fatalf("NaN offset not treated as 0: %+v", evs[0])
	}
	if evs[1].Name != "neg-dur" || evs[1].Dur != 0 {
		t.Fatalf("negative dur not clamped: %+v", evs[1])
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2 non-finite events counted", tr.Dropped())
	}
}

// Satellite: out-of-order batches — later wall-clock spans imported before
// earlier ones still export in sorted order per (pid, tid, start).
func TestImportEventsOutOfOrderBatches(t *testing.T) {
	tr := New(nil)
	tr.ImportEvents(2, 0, []Event{{Name: "second", Start: 5, Dur: 1, TID: 0}})
	tr.ImportEvents(2, 0, []Event{{Name: "first", Start: 1, Dur: 1, TID: 0}})
	tr.ImportEvents(1, 0, []Event{{Name: "other-node", Start: 3, Dur: 1, TID: 0}})

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range out.TraceEvents {
		if e.Ph == "X" {
			names = append(names, e.Name)
		}
	}
	want := []string{"other-node", "first", "second"}
	if len(names) != len(want) {
		t.Fatalf("exported %d spans, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("export order = %v, want %v", names, want)
		}
	}
}
