package journal

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsNop(t *testing.T) {
	var r *Recorder
	r.Record("x", 1, 2, "k", "v")
	r.RecordAt(1.0, "x", 1, 2)
	r.SetDisabled(true)
	if r.Events() != nil || r.EventsSince(0) != nil {
		t.Fatal("nil recorder returned events")
	}
	if r.Len() != 0 || r.Dropped() != 0 || r.Total() != 0 {
		t.Fatal("nil recorder reported non-zero state")
	}
	if r.Now() != 0 {
		t.Fatal("nil recorder clock not zeroed")
	}
}

func TestNilRecordZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record("push.ack", 3, 7, "seq", "41")
	})
	if allocs != 0 {
		t.Fatalf("nil Record allocated %.1f times per call, want 0", allocs)
	}
}

func TestRecordAndOrder(t *testing.T) {
	r := NewClock(2, 8, nil)
	r.RecordAt(1.5, "a", 1, None)
	r.RecordAt(2.5, "b", 1, 4, "cause", "drop")
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != "a" || evs[1].Kind != "b" {
		t.Fatalf("wrong order: %+v", evs)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("seq not monotonic from 1: %+v", evs)
	}
	if evs[0].Node != 2 || evs[0].Round != 1 || evs[0].Client != None {
		t.Fatalf("correlation ids wrong: %+v", evs[0])
	}
	if evs[1].Attrs["cause"] != "drop" {
		t.Fatalf("attrs lost: %+v", evs[1])
	}
}

func TestOddKVPairsWithEmptyValue(t *testing.T) {
	r := NewClock(0, 4, nil)
	r.RecordAt(0, "x", None, None, "alone")
	if got := r.Events()[0].Attrs["alone"]; got != "" {
		t.Fatalf("odd trailing key = %q, want empty", got)
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	r := NewClock(0, 3, nil)
	for i := 0; i < 5; i++ {
		r.RecordAt(float64(i), "e", i, None)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	// Oldest two (rounds 0,1) overwritten; survivors in order 2,3,4.
	for i, want := range []int{2, 3, 4} {
		if evs[i].Round != want {
			t.Fatalf("evs[%d].Round = %d, want %d (%+v)", i, evs[i].Round, want, evs)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
}

func TestEventsSince(t *testing.T) {
	r := NewClock(0, 3, nil)
	for i := 0; i < 5; i++ {
		r.RecordAt(float64(i), "e", i, None)
	}
	evs := r.EventsSince(3)
	if len(evs) != 2 || evs[0].Seq != 4 || evs[1].Seq != 5 {
		t.Fatalf("EventsSince(3) = %+v, want seqs 4,5", evs)
	}
	if got := r.EventsSince(99); got != nil {
		t.Fatalf("EventsSince past head = %+v, want nil", got)
	}
}

func TestDisabled(t *testing.T) {
	r := NewClock(0, 4, nil)
	r.SetDisabled(true)
	r.RecordAt(1, "x", None, None)
	if r.Len() != 0 {
		t.Fatal("disabled recorder recorded")
	}
	r.SetDisabled(false)
	r.RecordAt(2, "y", None, None)
	if r.Len() != 1 {
		t.Fatal("re-enabled recorder did not record")
	}
}

func TestNonFiniteTimestampSanitized(t *testing.T) {
	r := NewClock(0, 4, nil)
	r.RecordAt(math.NaN(), "x", None, None)
	r.RecordAt(math.Inf(1), "y", None, None)
	for _, e := range r.Events() {
		if e.TS != 0 {
			t.Fatalf("non-finite TS leaked: %+v", e)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(0, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record("e", i, None)
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Fatalf("Total = %d, want 800", r.Total())
	}
	if r.Len() != 64 || r.Dropped() != 800-64 {
		t.Fatalf("Len=%d Dropped=%d, want 64/736", r.Len(), r.Dropped())
	}
}

func TestFleetImportOffsetAndDedup(t *testing.T) {
	local := NewClock(None, 16, nil)
	f := NewFleet(16, local)
	local.RecordAt(5, "srv", None, None)

	batch := []Event{
		{TS: 2, Seq: 1, Kind: "cli.a", Round: 1, Client: None},
		{TS: 3, Seq: 2, Kind: "cli.b", Round: 1, Client: None},
	}
	f.Import(7, 1.5, batch) // remote clock behind by 1.5s
	f.Import(7, 1.5, batch) // verbatim re-delivery (telemetry retry)
	evs := f.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (dedup failed?): %+v", len(evs), evs)
	}
	// Causal order on the local clock: cli.a@3.5, cli.b@4.5, srv@5.
	if evs[0].Kind != "cli.a" || evs[1].Kind != "cli.b" || evs[2].Kind != "srv" {
		t.Fatalf("wrong causal order: %+v", evs)
	}
	if evs[0].TS != 3.5 || evs[0].Node != 7 {
		t.Fatalf("offset/node not applied: %+v", evs[0])
	}
	if f.Nodes() != 1 {
		t.Fatalf("Nodes = %d, want 1", f.Nodes())
	}
}

func TestFleetNegativeOffsetClampsAtZero(t *testing.T) {
	f := NewFleet(8, nil)
	f.Import(1, -10, []Event{{TS: 2, Seq: 1, Kind: "x"}})
	evs := f.Events()
	if len(evs) != 1 || evs[0].TS != 0 {
		t.Fatalf("negative offset not clamped: %+v", evs)
	}
}

func TestFleetHostileInputsSanitized(t *testing.T) {
	f := NewFleet(8, nil)
	if off := f.ClockOffset(math.NaN()); off != 0 {
		t.Fatalf("ClockOffset(NaN) = %v, want 0", off)
	}
	f.Import(1, math.Inf(1), []Event{{TS: 1, Seq: 1, Kind: "a"}})
	f.Import(2, 0, []Event{{TS: math.NaN(), Seq: 1, Kind: "b"}})
	evs := f.Events()
	if len(evs) != 1 || evs[0].Kind != "a" || evs[0].TS != 1 {
		t.Fatalf("hostile inputs leaked: %+v", evs)
	}
}

func TestFleetImportBounded(t *testing.T) {
	f := NewFleet(4, nil)
	var batch []Event
	for i := 0; i < 10; i++ {
		batch = append(batch, Event{TS: float64(i), Seq: uint64(i + 1), Kind: "e", Round: i})
	}
	f.Import(1, 0, batch)
	evs := f.Events()
	if len(evs) != 4 || f.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want 4/6", len(evs), f.Dropped())
	}
	if evs[0].Round != 6 || evs[3].Round != 9 {
		t.Fatalf("kept wrong tail: %+v", evs)
	}
}

func TestNilFleetIsNop(t *testing.T) {
	var f *Fleet
	f.Import(1, 0, []Event{{Seq: 1}})
	if f.Events() != nil || f.Dropped() != 0 || f.Nodes() != 0 || f.Local() != nil {
		t.Fatal("nil fleet not a nop")
	}
	if f.ClockOffset(5) != 0 {
		t.Fatal("nil fleet ClockOffset != 0")
	}
}

func TestMergeTieBreaksByNodeAndSeq(t *testing.T) {
	a := []Event{{TS: 1, Node: 2, Seq: 1, Kind: "b"}, {TS: 1, Node: 2, Seq: 2, Kind: "c"}}
	b := []Event{{TS: 1, Node: 1, Seq: 9, Kind: "a"}, {TS: 0.5, Node: 3, Seq: 1, Kind: "z"}}
	got := Merge(a, b)
	want := []string{"z", "a", "b", "c"}
	for i, k := range want {
		if got[i].Kind != k {
			t.Fatalf("merge order[%d] = %q, want %q (%+v)", i, got[i].Kind, k, got)
		}
	}
}

func TestFilterMatch(t *testing.T) {
	n, rd, cl := 1, 2, 3
	e := Event{Node: 1, Round: 2, Client: 3, Kind: "exec.heal"}
	cases := []struct {
		q    Filter
		want bool
	}{
		{Filter{}, true},
		{Filter{Node: &n, Round: &rd, Client: &cl}, true},
		{Filter{Kind: "exec.heal"}, true},
		{Filter{Kind: "exec"}, true},    // dotted-prefix match
		{Filter{Kind: "exec.h"}, false}, // not a dot boundary
		{Filter{Kind: "exec.heals"}, false},
		{Filter{Kind: "chaos"}, false},
		{Filter{Round: &cl}, false},
	}
	for i, c := range cases {
		if got := c.q.Match(e); got != c.want {
			t.Fatalf("case %d: Match = %v, want %v (%+v)", i, got, c.want, c.q)
		}
	}
}

func TestApplyLast(t *testing.T) {
	evs := []Event{{Kind: "a"}, {Kind: "b"}, {Kind: "c"}}
	got := Apply(evs, Filter{Last: 2})
	if len(got) != 2 || got[0].Kind != "b" {
		t.Fatalf("Apply Last=2 = %+v", got)
	}
	if got := Tail(evs, 0); len(got) != 3 {
		t.Fatalf("Tail(0) truncated: %+v", got)
	}
}

func TestHandlerFilters(t *testing.T) {
	local := NewClock(None, 16, nil)
	f := NewFleet(16, local)
	local.RecordAt(1, "srv.start", None, None)
	f.Import(1, 0, []Event{
		{TS: 2, Seq: 1, Round: 4, Client: 1, Kind: "push.apply"},
		{TS: 3, Seq: 2, Round: 5, Client: 1, Kind: "push.apply"},
		{TS: 4, Seq: 3, Round: 5, Client: 1, Kind: "net.retry"},
	})
	h := f.Handler()

	get := func(url string) eventsResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		var resp eventsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
		return resp
	}

	if resp := get("/events"); resp.Count != 4 {
		t.Fatalf("/events count = %d, want 4", resp.Count)
	}
	resp := get("/events?round=5&kind=push.apply")
	if resp.Count != 1 || resp.Events[0].TS != 3 {
		t.Fatalf("round+kind filter = %+v", resp)
	}
	if resp := get("/events?kind=push"); resp.Count != 2 {
		t.Fatalf("prefix kind filter count = %d, want 2", resp.Count)
	}
	if resp := get("/events?node=-1"); resp.Count != 1 || resp.Events[0].Kind != "srv.start" {
		t.Fatalf("node filter = %+v", resp)
	}
	if resp := get("/events?last=2"); resp.Count != 2 || resp.Events[1].Kind != "net.retry" {
		t.Fatalf("last filter = %+v", resp)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/events?round=abc", nil))
	if rec.Code != 400 {
		t.Fatalf("bad round param: status %d, want 400", rec.Code)
	}
}

func TestHandlerNilFleet(t *testing.T) {
	var f *Fleet
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	if rec.Code != 200 {
		t.Fatalf("nil fleet handler status = %d", rec.Code)
	}
	var resp eventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Count != 0 {
		t.Fatalf("nil fleet handler body = %s (err %v)", rec.Body.String(), err)
	}
}

func TestTimelineRendering(t *testing.T) {
	evs := []Event{
		{TS: 1.25, Node: 0, Seq: 1, Round: 3, Client: None, Kind: "chaos.inject", Attrs: map[string]string{"mode": "sever", "link": "0->1"}},
		{TS: 2.5, Node: None, Seq: 1, Round: None, Client: 4, Kind: "push.apply"},
	}
	out := Timeline(evs)
	for _, want := range []string{"chaos.inject", "round=3", "link=0->1", "mode=sever", "client=4", "push.apply"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "round=-1") || strings.Contains(out, "client=-1") {
		t.Fatalf("timeline rendered None ids:\n%s", out)
	}
}

func TestCountByKind(t *testing.T) {
	got := CountByKind([]Event{{Kind: "a"}, {Kind: "b"}, {Kind: "a"}})
	if got["a"] != 2 || got["b"] != 1 {
		t.Fatalf("CountByKind = %v", got)
	}
	if CountByKind(nil) != nil {
		t.Fatal("CountByKind(nil) != nil")
	}
}
