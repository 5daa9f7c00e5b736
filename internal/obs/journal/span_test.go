package journal

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// chromeOut is the slice of the Chrome trace-event format the tests read.
type chromeOut struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func exportChrome(t *testing.T, write func(*strings.Builder) error) chromeOut {
	t.Helper()
	var b strings.Builder
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	var out chromeOut
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, b.String())
	}
	return out
}

func TestVirtualClockSpans(t *testing.T) {
	now := 0.0
	r := NewClock(0, 8, func() float64 { return now })
	sp := r.Begin()
	now = 2.5
	sp.End(1, "fl.round", 3, None, "clients", "4")
	ev := r.Events()
	if len(ev) != 1 {
		t.Fatalf("events = %d, want 1", len(ev))
	}
	if e := ev[0]; e.TS != 2.5 || e.Dur != 2.5 || e.Lane != 1 || e.Round != 3 || e.Attrs["clients"] != "4" {
		t.Fatalf("span = %+v, want it to end at 2.5 after 2.5 s on lane 1", e)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	r := NewClock(0, 8, nil)
	r.SpanAt(5, 3, 0, "backwards", None, None)
	r.SpanAt(math.Inf(-1), 3, 0, "endless", None, None)
	for _, e := range r.Events() {
		if e.Dur != 0 || e.TS != 3 {
			t.Fatalf("span %+v, want duration 0 ending at 3", e)
		}
	}
}

func TestWallClockMonotonic(t *testing.T) {
	r := New(0, 8)
	a := r.Now()
	b := r.Now()
	if b < a || a < 0 {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

func TestChromeExportShape(t *testing.T) {
	r := NewClock(1, 8, nil)
	r.SetName(None, "portal")
	r.SetName(0, "stage 0")
	r.SetName(1, "stage 1")
	r.SpanAt(0, 1, 0, "pipe.fwd", None, None, "micro", "0")
	r.SpanAt(1, 2, 1, "pipe.fwd", None, None)

	out := exportChrome(t, func(b *strings.Builder) error { return r.WriteChromeTrace(b) })
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var meta, spans int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if e.Dur != 1e6 { // 1 s in µs
				t.Fatalf("span dur = %v µs, want 1e6", e.Dur)
			}
			if e.TS != float64(e.TID)*1e6 { // starts at TS − Dur
				t.Fatalf("span on lane %d starts at %v µs", e.TID, e.TS)
			}
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
	}
	if meta != 3 || spans != 2 {
		t.Fatalf("meta=%d spans=%d, want 3/2: %+v", meta, spans, out)
	}
	if out.TraceEvents[0].Name != "process_name" || out.TraceEvents[0].Args["name"] != "portal" {
		t.Fatalf("missing process_name metadata: %+v", out.TraceEvents[0])
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New(0, 1<<12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Begin().End(g, "work", None, None)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 8*200 {
		t.Fatalf("events = %d, want %d", r.Len(), 8*200)
	}
	exportChrome(t, func(b *strings.Builder) error { return r.WriteChromeTrace(b) })
}

func TestImportEventsRemapsPidAndShiftsClock(t *testing.T) {
	// The remote node records on its own clock starting at 0.
	remote := NewClock(7, 8, nil)
	remote.SpanAt(1.0, 1.5, 2, "pipe.fwd", None, None, "micro", "3")
	remote.RecordAt(2.0, "mark", None, None)

	// The server's clock reads 10.25 when the batch (senderNow = 2.5) lands.
	local := NewClock(None, 8, func() float64 { return 10.25 })
	local.SpanAt(10, 10.1, 0, "serve", None, None)
	f := NewFleet(8, local)
	offset := f.ClockOffset(2.5)
	f.Import(3, remote.Epoch(), offset, remote.Events())

	evs := f.Events()
	if len(evs) != 3 {
		t.Fatalf("merged timeline has %d events, want 3", len(evs))
	}
	imported, mark := evs[0], evs[1] // 9.25 and 9.75 on the local clock, before serve
	if imported.Node != 3 || imported.Lane != 2 {
		t.Fatalf("imported span on node %d lane %d, want node remapped to 3, lane 2 passed through", imported.Node, imported.Lane)
	}
	if imported.TS != 1.5+offset || imported.Dur != 0.5 || imported.Attrs["micro"] != "3" {
		t.Fatalf("imported span = %+v, want it to end at %v after 0.5 s with its attrs", imported, 1.5+offset)
	}
	if mark.Dur != 0 || mark.TS != 2.0+offset {
		t.Fatalf("imported instant = %+v, want it shifted", mark)
	}
	if remote.Events()[0].Node != 7 {
		t.Fatal("Import mutated the source events")
	}
}

// TestMergedChromeTraceHasBothNodeLanes is the fleet-trace shape check: after
// importing two nodes' spans, the exported Chrome trace contains spans under
// two distinct pids plus the server's own lane, each with its process name.
func TestMergedChromeTraceHasBothNodeLanes(t *testing.T) {
	local := NewClock(-1, 8, nil)
	local.SetName(None, "ecofl-server")
	local.SpanAt(0, 1, 0, "server.eval", None, None)
	f := NewFleet(8, local)
	for node := 1; node <= 2; node++ {
		remote := NewClock(0, 8, nil)
		remote.SpanAt(0, 2, 0, "portal.train", None, None)
		f.SetProcessName(node, "portal")
		f.Import(node, remote.Epoch(), 5*float64(node), remote.Events())
	}

	out := exportChrome(t, func(b *strings.Builder) error { return f.WriteChromeTrace(b) })
	spanPids, names := map[int]bool{}, map[int]any{}
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			spanPids[e.PID] = true
		case "M":
			names[e.PID] = e.Args["name"]
		}
	}
	for _, pid := range []int{-1, 1, 2} {
		if !spanPids[pid] {
			t.Fatalf("merged trace missing spans for pid %d: %v", pid, spanPids)
		}
	}
	if names[-1] != "ecofl-server" || names[1] != "portal 1" || names[2] != "portal 2" {
		t.Fatalf("process names = %v", names)
	}
}

// TestImportEventsOutOfOrderBatches: later spans imported before earlier ones
// still export sorted per (node, lane, start).
func TestImportEventsOutOfOrderBatches(t *testing.T) {
	f := NewFleet(8, nil)
	f.Import(2, 1, 0, []Event{{Kind: "second", TS: 6, Dur: 1}})
	f.Import(2, 1, 0, []Event{{Kind: "first", TS: 2, Dur: 1}})
	f.Import(1, 1, 0, []Event{{Kind: "other-node", TS: 4, Dur: 1}})

	out := exportChrome(t, func(b *strings.Builder) error { return f.WriteChromeTrace(b) })
	var names []string
	for _, e := range out.TraceEvents {
		if e.Ph == "X" {
			names = append(names, e.Name)
		}
	}
	if strings.Join(names, ",") != "other-node,first,second" {
		t.Fatalf("export order = %v, want other-node, first, second", names)
	}
}

// TestImportEventsSanitizesHostileInputs: wire input is hostile input. A
// non-finite timestamp or duration drops the event, a negative duration
// counts as 0, and a non-finite offset as no offset; the merged timeline
// stays finite.
func TestImportEventsSanitizesHostileInputs(t *testing.T) {
	f := NewFleet(8, nil)
	f.Import(1, 0, math.NaN(), []Event{{Kind: "a", TS: 1, Dur: 1, Seq: 1}})
	f.Import(1, 0, 0, []Event{
		{Kind: "bad-ts", TS: math.Inf(1), Dur: 1, Seq: 2},
		{Kind: "bad-dur", TS: 1, Dur: math.NaN(), Seq: 3},
		{Kind: "inf-dur", TS: 1, Dur: math.Inf(1), Seq: 4},
		{Kind: "neg-dur", TS: 1, Dur: -5, Seq: 5},
		{Kind: "ok", TS: 3, Dur: 1, Seq: 6},
	})
	f.Import(2, 0, 1e308, []Event{{Kind: "overflow", TS: 1e308, Seq: 1}})
	evs := f.Events()
	var kinds []string
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
		if math.IsNaN(e.TS) || math.IsInf(e.TS, 0) || math.IsNaN(e.Dur) || math.IsInf(e.Dur, 0) || e.Dur < 0 || e.TS < e.Dur {
			t.Fatalf("hostile input leaked into the timeline: %+v", e)
		}
	}
	if strings.Join(kinds, ",") != "a,neg-dur,ok" {
		t.Fatalf("timeline = %v, want a, neg-dur, ok", kinds)
	}
	if evs[0].TS != 1 || evs[1].Dur != 0 {
		t.Fatalf("NaN offset not 0 or negative duration not clamped: %+v", evs)
	}
}

// TestHandlerServesSpans: /events lists spans beside instant events, a span
// with its duration.
func TestHandlerServesSpans(t *testing.T) {
	local := NewClock(None, 8, nil)
	local.RecordAt(1, "push.apply", 0, 2)
	local.SpanAt(1, 3, 0, "checkpoint.write", 0, None)
	rec := httptest.NewRecorder()
	NewFleet(8, local).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	var resp eventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.Events[0].Dur != 0 || resp.Events[1].Dur != 2 {
		t.Fatalf("/events = %s, want the instant and the 2 s span", rec.Body.String())
	}
}

// BenchmarkNopSpanOnly isolates the per-span overhead of the nop recorder:
// a Begin/End pair on a nil *Recorder, nothing else.
func BenchmarkNopSpanOnly(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Begin().End(0, "x", None, None)
	}
}
