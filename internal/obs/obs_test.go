package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsSafeNop(t *testing.T) {
	var tr *Trace
	sp := tr.Begin(0, 0, "x", "y")
	sp.End()
	tr.Span(0, 0, "a", "b", 0, 1, nil)
	tr.SetProcessName(0, "p")
	tr.SetThreadName(0, 0, "t")
	if tr.Len() != 0 || tr.Events() != nil || tr.Now() != 0 {
		t.Fatal("nil trace recorded something")
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("nil trace export invalid: %v", err)
	}
}

func TestVirtualClockSpans(t *testing.T) {
	now := 0.0
	tr := New(func() float64 { return now })
	sp := tr.Begin(0, 1, "round", "fl")
	now = 2.5
	sp.EndArgs(map[string]float64{"clients": 4})
	ev := tr.Events()
	if len(ev) != 1 {
		t.Fatalf("events = %d, want 1", len(ev))
	}
	if ev[0].Start != 0 || ev[0].Dur != 2.5 || ev[0].Args["clients"] != 4 {
		t.Fatalf("span = %+v", ev[0])
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	tr := New(nil)
	tr.Span(0, 0, "backwards", "", 5, 3, nil)
	if ev := tr.Events(); ev[0].Dur != 0 {
		t.Fatalf("dur = %v, want 0", ev[0].Dur)
	}
}

func TestWallClockMonotonic(t *testing.T) {
	tr := NewWall()
	a := tr.Now()
	b := tr.Now()
	if b < a || a < 0 {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

func TestChromeExportShape(t *testing.T) {
	tr := New(nil)
	tr.SetProcessName(1, "portal")
	tr.SetThreadName(1, 0, "stage 0")
	tr.SetThreadName(1, 1, "stage 1")
	tr.Span(1, 0, "F0", "compute", 0, 1, map[string]float64{"micro": 0})
	tr.Span(1, 1, "F0", "compute", 1, 2, nil)

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
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
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, b.String())
	}
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
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
	}
	if meta != 3 || spans != 2 {
		t.Fatalf("meta=%d spans=%d, want 3/2:\n%s", meta, spans, b.String())
	}
	// Timestamps converted to microseconds.
	if !strings.Contains(b.String(), `"name":"process_name"`) {
		t.Fatalf("missing process_name metadata:\n%s", b.String())
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := NewWall()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Begin(0, g, "work", "test")
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 8*200 {
		t.Fatalf("events = %d, want %d", tr.Len(), 8*200)
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatal("concurrent trace export is invalid JSON")
	}
}
