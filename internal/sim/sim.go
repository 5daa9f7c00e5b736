// Package sim is a deterministic discrete-event engine driving Eco-FL's
// virtual-time simulations (the 300-client FL runs and the adaptive
// rescheduling timelines). Events at equal timestamps fire in scheduling
// order, so runs are exactly reproducible.
package sim

import (
	"container/heap"
	"fmt"
)

// Engine is a virtual clock with an event queue. The zero value is ready to
// use at time 0.
type Engine struct {
	now float64
	seq int64
	pq  eventHeap
}

type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Schedule queues fn to run delay time units from now. Negative delays are
// rejected — virtual time never flows backward.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time t ≥ Now().
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) before now (%v)", t, e.now))
	}
	heap.Push(&e.pq, event{at: t, seq: e.seq, fn: fn})
	e.seq++
}

// Step runs the earliest event, advancing the clock to its timestamp.
// It reports whether an event was run.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue is empty or maxEvents fire; it
// returns the number of events executed. maxEvents ≤ 0 means unbounded.
func (e *Engine) Run(maxEvents int) int {
	n := 0
	for e.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}
