package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var e Engine
	var order []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		e.Schedule(d, func() { order = append(order, d) })
	}
	e.Run(0)
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events must fire FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var hits []float64
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(2, func() { hits = append(hits, e.Now()) })
	})
	e.Run(0)
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.ScheduleAt(3, func() {})
}

func TestRunMaxEvents(t *testing.T) {
	var e Engine
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() {})
	}
	if n := e.Run(4); n != 4 {
		t.Fatalf("Run(4) executed %d", n)
	}
	if n := e.Run(0); n != 6 {
		t.Fatalf("%d events were left, want 6", n)
	}
}

// Property: for random delays, the clock is monotone within every run and
// every event sees Now() equal to its scheduled time.
func TestMonotoneClockProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		ok := true
		prev := -1.0
		for i := 0; i < 50; i++ {
			d := rng.Float64() * 100
			at := d
			e.Schedule(d, func() {
				if e.Now() != at || e.Now() < prev {
					ok = false
				}
				prev = e.Now()
			})
		}
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
