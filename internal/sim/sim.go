// Package sim is a deterministic discrete-event engine driving Eco-FL's
// virtual-time simulations (the 300-client FL runs and the adaptive
// rescheduling timelines). Events at equal timestamps fire in scheduling
// order, so runs are exactly reproducible.
package sim

import "fmt"

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

// eventHeap is a binary min-heap of events ordered by (at, seq). The order is
// total — no two events share a seq — so the pop order is the one any correct
// heap yields. It is typed, not a container/heap.Interface, so that an event
// is not boxed into an interface on every push and pop.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q[n] = event{} // the queue's array keeps no fired closure alive
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
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
	e.pq.push(event{at: t, seq: e.seq, fn: fn})
	e.seq++
}

// Step runs the earliest event, advancing the clock to its timestamp.
// It reports whether an event was run.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq.pop()
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
