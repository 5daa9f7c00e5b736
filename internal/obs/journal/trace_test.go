package journal_test

// These tests pin, from outside the package, the contracts a caller of a span
// trace relies on: a nil recorder is a nop that still exports a valid trace,
// incremental shipping reads only what is new, the buffer is bounded and
// counts what it drops, and a remote clock running ahead of ours clamps at
// the local epoch without losing a span's length.

import (
	"encoding/json"
	"strings"
	"testing"

	"ecofl/internal/obs/journal"
)

// chromeSpans exports a trace, checks it is valid Chrome trace-event JSON, and
// returns the names of its spans in export order.
func chromeSpans(t *testing.T, write func(*strings.Builder) error) []string {
	t.Helper()
	var b strings.Builder
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, b.String())
	}
	if out.TraceEvents == nil {
		t.Fatalf("trace has no traceEvents array: %s", b.String())
	}
	var spans []string
	for _, e := range out.TraceEvents {
		if e.Ph == "X" {
			spans = append(spans, e.Name)
		}
	}
	return spans
}

func TestNilTraceIsSafeNop(t *testing.T) {
	var r *journal.Recorder
	r.Begin().End(0, "x", journal.None, journal.None)
	r.SpanAt(0, 1, 0, "a", journal.None, journal.None)
	r.SetName(journal.None, "p")
	r.SetName(0, "t")
	if r.Len() != 0 || r.Events() != nil || r.Now() != 0 {
		t.Fatal("nil recorder recorded something")
	}
	if spans := chromeSpans(t, func(b *strings.Builder) error { return r.WriteChromeTrace(b) }); len(spans) != 0 {
		t.Fatalf("nil recorder exported spans %v", spans)
	}

	var f *journal.Fleet
	f.SetProcessName(1, "portal")
	f.Import(1, 1, 0, []journal.Event{{Kind: "x", TS: 1, Dur: 1, Seq: 1}})
	if f.Events() != nil || f.Local() != nil || f.Dropped() != 0 {
		t.Fatal("nil fleet recorded something")
	}
	if spans := chromeSpans(t, func(b *strings.Builder) error { return f.WriteChromeTrace(b) }); len(spans) != 0 {
		t.Fatalf("nil fleet exported spans %v", spans)
	}
}

// TestEventsFromIncrementalRead: a shipper keeps the Seq of the last event it
// sent and reads only what came after; the mark stays valid after the ring
// wraps.
func TestEventsFromIncrementalRead(t *testing.T) {
	r := journal.NewClock(1, 3, nil)
	r.SpanAt(0, 1, 0, "a", journal.None, journal.None)
	r.SpanAt(1, 2, 0, "b", journal.None, journal.None)
	if got := r.EventsSince(0); len(got) != 2 {
		t.Fatalf("EventsSince(0) = %d events, want 2", len(got))
	}
	mark := r.Events()[1].Seq
	if got := r.EventsSince(mark); got != nil {
		t.Fatalf("EventsSince(high-water) = %+v, want nil", got)
	}
	r.SpanAt(2, 3, 0, "c", journal.None, journal.None)
	got := r.EventsSince(mark)
	if len(got) != 1 || got[0].Kind != "c" {
		t.Fatalf("EventsSince(mark) = %+v, want just the new span", got)
	}

	// Two more spans overwrite a and b; the mark still reads exactly the
	// spans recorded after it.
	r.SpanAt(3, 4, 0, "d", journal.None, journal.None)
	r.SpanAt(4, 5, 0, "e", journal.None, journal.None)
	var kinds []string
	for _, e := range r.EventsSince(mark) {
		kinds = append(kinds, e.Kind)
	}
	if strings.Join(kinds, ",") != "c,d,e" {
		t.Fatalf("EventsSince(mark) after wrap = %v, want c, d, e", kinds)
	}

	var nilRecorder *journal.Recorder
	if nilRecorder.EventsSince(0) != nil {
		t.Fatal("nil recorder must return nil")
	}
}

// TestTraceEventCapDropsAndCounts: the span buffer is bounded. Past the cap
// the oldest spans are overwritten and counted, the recorder's and the
// fleet's alike, and the Chrome export stays valid.
func TestTraceEventCapDropsAndCounts(t *testing.T) {
	r := journal.NewClock(1, 3, nil)
	for i := 0; i < 5; i++ {
		r.SpanAt(float64(i), float64(i)+0.5, 0, "s", journal.None, journal.None)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 || uint64(r.Len())+r.Dropped() != 5 {
		t.Fatalf("Dropped = %d, Len+Dropped = %d, want 2 and 5", r.Dropped(), uint64(r.Len())+r.Dropped())
	}
	// Drop-oldest: the last three spans survive, in recording order.
	evs := r.Events()
	for i, e := range evs {
		if start := e.TS - e.Dur; start != float64(i+2) {
			t.Fatalf("evs[%d] starts at %v, want %v (drop-oldest violated)", i, start, float64(i+2))
		}
	}
	if got := r.EventsSince(evs[1].Seq); len(got) != 1 || got[0].TS-got[0].Dur != 4 {
		t.Fatalf("EventsSince(second survivor) = %+v, want the span starting at 4", got)
	}
	if spans := chromeSpans(t, func(b *strings.Builder) error { return r.WriteChromeTrace(b) }); len(spans) != 3 {
		t.Fatalf("exported %d spans, want 3", len(spans))
	}

	f := journal.NewFleet(3, nil)
	f.Import(2, r.Epoch(), 0, r.Events())
	f.Import(3, 1, 0, []journal.Event{
		{Kind: "t", TS: 1, Dur: 1, Seq: 1},
		{Kind: "t", TS: 2, Dur: 1, Seq: 2},
	})
	if len(f.Events()) != 3 || f.Dropped() != 2 {
		t.Fatalf("fleet kept %d spans and dropped %d, want 3 and 2", len(f.Events()), f.Dropped())
	}
	if spans := chromeSpans(t, func(b *strings.Builder) error { return f.WriteChromeTrace(b) }); len(spans) != 3 {
		t.Fatalf("fleet exported %d spans, want 3", len(spans))
	}
}

// TestImportEventsNegativeOffset: a remote clock reading *ahead* of ours
// makes the offset negative, so imported spans shift backward; a span that
// would start before the local epoch starts at 0 and keeps its length.
func TestImportEventsNegativeOffset(t *testing.T) {
	local := journal.NewClock(journal.None, 8, nil)
	local.SpanAt(0, 1, 0, "local", journal.None, journal.None)

	remote := journal.NewClock(9, 8, nil)
	remote.SpanAt(100.0, 100.5, 0, "late", journal.None, journal.None)
	remote.SpanAt(2.0, 2.5, 0, "early", journal.None, journal.None)

	f := journal.NewFleet(8, local)
	offset := f.ClockOffset(103.0) // local.Now() = 0 (clockless) → offset = -103
	if offset != -103.0 {
		t.Fatalf("offset = %v, want -103", offset)
	}
	f.Import(4, remote.Epoch(), offset, remote.Events())
	evs := f.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for _, e := range evs {
		if e.Kind == "local" {
			continue
		}
		if e.Node != 4 {
			t.Fatalf("%s imported on node %d, want 4", e.Kind, e.Node)
		}
		if start := e.TS - e.Dur; start != 0 {
			t.Fatalf("%s starts at %v, want clamp to 0", e.Kind, start)
		}
		if e.Dur != 0.5 {
			t.Fatalf("%s.Dur = %v, want 0.5 untouched by the clamp", e.Kind, e.Dur)
		}
	}
}
