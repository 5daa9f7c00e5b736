package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestEventsFromIncrementalRead(t *testing.T) {
	tr := New(nil)
	tr.Span(1, 0, "a", "c", 0, 1, nil)
	tr.Span(1, 0, "b", "c", 1, 2, nil)
	mark := tr.Len()
	if got := tr.EventsFrom(0); len(got) != 2 {
		t.Fatalf("EventsFrom(0) = %d events, want 2", len(got))
	}
	if got := tr.EventsFrom(mark); got != nil {
		t.Fatalf("EventsFrom(high-water) = %v, want nil", got)
	}
	tr.Span(1, 0, "c", "c", 2, 3, nil)
	got := tr.EventsFrom(mark)
	if len(got) != 1 || got[0].Name != "c" {
		t.Fatalf("EventsFrom(mark) = %+v, want just the new span", got)
	}
	if got := tr.EventsFrom(-5); len(got) != 3 {
		t.Fatalf("negative from should read everything, got %d", len(got))
	}
	var nilTrace *Trace
	if nilTrace.EventsFrom(0) != nil {
		t.Fatal("nil trace must return nil")
	}
}

func TestImportEventsRemapsPidAndShiftsClock(t *testing.T) {
	// The remote node records on its own clock starting at 0.
	remote := New(nil)
	remote.Span(7, 2, "fwd", "stage", 1.0, 1.5, map[string]float64{"micro": 3})

	// The server's clock reads 10.25 when the batch (senderNow = 2.5) lands.
	server := New(nil)
	offset := 10.25 - 2.5
	server.Span(0, 0, "serve", "srv", 10, 10.1, nil)
	batch := append(remote.Events(), Event{Name: "mark", Cat: "stage", Start: 2.0, PID: 7, TID: 2})
	server.ImportEvents(3, offset, batch)

	evs := server.Events()
	if len(evs) != 3 {
		t.Fatalf("merged trace has %d events, want 3", len(evs))
	}
	imported := evs[1]
	if imported.PID != 3 {
		t.Fatalf("imported pid = %d, want remapped node pid 3", imported.PID)
	}
	if imported.TID != 2 {
		t.Fatalf("imported tid = %d, want passthrough 2", imported.TID)
	}
	if imported.Start != 1.0+offset || imported.Dur != 0.5 {
		t.Fatalf("imported span start/dur = %v/%v, want %v/0.5", imported.Start, imported.Dur, 1.0+offset)
	}
	if imported.Args["micro"] != 3 {
		t.Fatalf("imported args lost: %+v", imported.Args)
	}
	if mark := evs[2]; mark.Dur != 0 || mark.Start != 2.0+offset {
		t.Fatalf("imported zero-length span = %+v, want it shifted", mark)
	}
	// The original batch is untouched (import copies).
	if remote.Events()[0].PID != 7 {
		t.Fatal("ImportEvents mutated the source events")
	}
}

// TestMergedChromeTraceHasBothNodeLanes is the fleet-trace shape check: after
// importing two nodes' spans, the exported Chrome trace contains spans under
// two distinct pids plus the server's own lane, each with its process name.
func TestMergedChromeTraceHasBothNodeLanes(t *testing.T) {
	server := New(nil)
	server.SetProcessName(0, "ecofl-server")
	server.Span(0, 0, "aggregate", "srv", 0, 1, nil)

	for node := 1; node <= 2; node++ {
		remote := New(nil)
		remote.Span(0, 0, "train", "portal", 0, 2, nil)
		server.SetProcessName(node, "portal")
		server.ImportEvents(node, 5*float64(node), remote.Events())
	}

	var b strings.Builder
	if err := server.WriteChromeTrace(&b); err != nil {
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
		t.Fatalf("invalid chrome trace: %v", err)
	}
	spanPids := map[int]bool{}
	for _, e := range out.TraceEvents {
		if e.Ph == "X" {
			spanPids[e.PID] = true
		}
	}
	for _, pid := range []int{0, 1, 2} {
		if !spanPids[pid] {
			t.Fatalf("merged trace missing spans for pid %d: %v", pid, spanPids)
		}
	}
}
