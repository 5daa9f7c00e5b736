package pipeline

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// TaskKind labels entries of a computed schedule.
type TaskKind int

const (
	TaskForward TaskKind = iota
	TaskBackward
	TaskCommF // activation transfer stage s → s+1
	TaskCommB // gradient transfer stage s+1 → s
)

func (k TaskKind) String() string {
	switch k {
	case TaskForward:
		return "F"
	case TaskBackward:
		return "B"
	case TaskCommF:
		return "CF"
	case TaskCommB:
		return "CB"
	}
	return "?"
}

// Task is one scheduled operation: compute on a stage or a link transfer.
type Task struct {
	Stage      int // for comm tasks, the link index (between Stage and Stage+1)
	Micro      int
	Kind       TaskKind
	Start, End float64
}

// Result is the outcome of scheduling one sync-round.
type Result struct {
	Config *Config
	Tasks  []Task
	// RoundTime is the sync-round makespan (injection to flush).
	RoundTime float64
	// Throughput is trained samples per second, M·mbs / RoundTime.
	Throughput float64
	// StageUtil is each stage's busy fraction of the round — the
	// simulation's analogue of the paper's "Avg. GPU Utilization".
	StageUtil []float64
	// PeakMemoryBytes is each stage's peak resident footprint.
	PeakMemoryBytes []float64
	// SSB is the synchronous static bubble per stage (Eq. 2) and DDB the
	// residual data-dependency bubble observed in the schedule.
	SSB, DDB []float64
	// Ps, Qs, Ks are the residency quantities of §4.3.
	Ps, Qs, Ks []int
}

// Op is one entry of a stage's static execution order: the forward or
// backward pass of one micro-batch.
type Op struct {
	Kind  TaskKind // TaskForward or TaskBackward
	Micro int
}

// Order returns a stage's static execution order for m micro-batches under
// the strategy, with k forward passes resident before the first backward
// (1F1B; BAF runs all m). It writes the order over ops's storage, grown as
// needed, so a caller that keeps its order from round to round rewrites it
// in place. Schedule times this order and the runtime executes it, so the
// two cannot disagree on what a stage does next.
func Order(ops []Op, strategy Strategy, m, k int) []Op {
	ops = slices.Grow(ops[:0], 2*m)
	switch strategy {
	case GPipeBAF:
		for i := 0; i < m; i++ {
			ops = append(ops, Op{TaskForward, i})
		}
		for i := 0; i < m; i++ {
			ops = append(ops, Op{TaskBackward, i})
		}
	default: // 1F1B (sync and async share the op order)
		if k > m {
			k = m
		}
		for i := 0; i < k; i++ {
			ops = append(ops, Op{TaskForward, i})
		}
		for i := 0; i < m-k; i++ {
			ops = append(ops, Op{TaskBackward, i}, Op{TaskForward, k + i})
		}
		for i := m - k; i < m; i++ {
			ops = append(ops, Op{TaskBackward, i})
		}
	}
	return ops
}

// Schedule computes the deterministic timeline of one sync-round under the
// config's strategy, enforcing stage-serial execution in 1F1B/BAF policy
// order, link-serial transfers, and the K_s residency limits.
func Schedule(c *Config) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ps, qs, ks, err := c.Residency()
	if err != nil {
		return nil, err
	}
	// A static in-order 1F1B pipeline requires non-increasing K along the
	// stages: a downstream stage cannot have more micro-batches in flight
	// than its upstream feeds it. Memory-capped front stages (Fig. 5
	// Config C) therefore throttle the whole tail.
	for s := 1; s < len(ks); s++ {
		if ks[s] > ks[s-1] {
			ks[s] = ks[s-1]
		}
	}

	S := len(c.Stages)
	M := c.NumMicroBatches
	times := c.Times()

	finF := make([][]float64, S)
	finB := make([][]float64, S)
	finCF := make([][]float64, S) // finCF[s][m]: activation m arrived at stage s+1
	finCB := make([][]float64, S) // finCB[s][m]: gradient m arrived back at stage s
	for s := 0; s < S; s++ {
		finF[s] = nanSlice(M)
		finB[s] = nanSlice(M)
		finCF[s] = nanSlice(M)
		finCB[s] = nanSlice(M)
	}
	orders := make([][]Op, S)
	cursor := make([]int, S)
	stageFree := make([]float64, S)
	linkFreeF := make([]float64, S)
	linkFreeB := make([]float64, S)
	for s := 0; s < S; s++ {
		orders[s] = Order(nil, c.Strategy, M, ks[s])
	}

	var tasks []Task
	emit := func(stage, micro int, kind TaskKind, start, dur float64) float64 {
		end := start + dur
		tasks = append(tasks, Task{Stage: stage, Micro: micro, Kind: kind, Start: start, End: end})
		return end
	}

	for {
		progress := false
		done := true
		for s := 0; s < S; s++ {
			for cursor[s] < len(orders[s]) {
				o := orders[s][cursor[s]]
				var dep float64
				switch o.Kind {
				case TaskForward:
					if s > 0 {
						dep = finCF[s-1][o.Micro]
					}
				case TaskBackward:
					if s == S-1 {
						dep = finF[s][o.Micro]
					} else {
						dep = finCB[s][o.Micro]
					}
				}
				if math.IsNaN(dep) {
					break // input not yet produced: stage stalls here
				}
				start := math.Max(stageFree[s], dep)
				switch o.Kind {
				case TaskForward:
					end := emit(s, o.Micro, TaskForward, start, times[s].Tf)
					finF[s][o.Micro] = end
					stageFree[s] = end
					if s < S-1 {
						cs := math.Max(end, linkFreeF[s])
						ce := emit(s, o.Micro, TaskCommF, cs, times[s].CommF)
						linkFreeF[s] = ce
						finCF[s][o.Micro] = ce
					}
				case TaskBackward:
					end := emit(s, o.Micro, TaskBackward, start, times[s].Tb)
					finB[s][o.Micro] = end
					stageFree[s] = end
					if s > 0 {
						cs := math.Max(end, linkFreeB[s-1])
						ce := emit(s-1, o.Micro, TaskCommB, cs, times[s-1].CommB)
						linkFreeB[s-1] = ce
						finCB[s-1][o.Micro] = ce
					}
				}
				cursor[s]++
				progress = true
			}
			if cursor[s] < len(orders[s]) {
				done = false
			}
		}
		if done {
			break
		}
		if !progress {
			return nil, fmt.Errorf("pipeline: schedule deadlock with Ks=%v (strategy %v)", ks, c.Strategy)
		}
	}

	res := &Result{Config: c, Tasks: tasks, Ps: ps, Qs: qs, Ks: ks}
	res.finish(times)
	return res, nil
}

func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// finish derives round metrics from the raw task list.
func (r *Result) finish(times []StageTimes) {
	c := r.Config
	S := len(c.Stages)
	var makespan float64
	busy := make([]float64, S)
	residency := make([]int, S)
	peakResidency := make([]int, S)
	type memEvent struct {
		t     float64
		stage int
		delta int
	}
	var events []memEvent
	for _, t := range r.Tasks {
		if t.End > makespan {
			makespan = t.End
		}
		switch t.Kind {
		case TaskForward:
			busy[t.Stage] += t.End - t.Start
			events = append(events, memEvent{t.Start, t.Stage, +1})
		case TaskBackward:
			busy[t.Stage] += t.End - t.Start
			events = append(events, memEvent{t.End, t.Stage, -1})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].delta < events[j].delta // free before allocate at ties
	})
	for _, e := range events {
		residency[e.stage] += e.delta
		if residency[e.stage] > peakResidency[e.stage] {
			peakResidency[e.stage] = residency[e.stage]
		}
	}

	r.RoundTime = makespan
	r.Throughput = float64(c.NumMicroBatches*c.MicroBatchSize) / makespan
	r.StageUtil = make([]float64, S)
	r.PeakMemoryBytes = make([]float64, S)
	r.SSB = make([]float64, S)
	r.DDB = make([]float64, S)

	var ssb float64
	for s := 0; s < S-1; s++ {
		ssb += times[s].Total()
	}
	for s := 0; s < S; s++ {
		r.StageUtil[s] = busy[s] / makespan
		r.PeakMemoryBytes[s] = c.stageParamBytes(s) + BaseOverheadBytes +
			float64(peakResidency[s])*c.residentBytesPerMicroBatch(s)
		r.SSB[s] = ssb
		idle := makespan - busy[s]
		ddb := idle - ssb
		if ddb < 0 {
			ddb = 0
		}
		r.DDB[s] = ddb
	}
}

// RenderGantt returns an ASCII Gantt chart of the schedule (one row per
// stage), the textual analogue of the paper's Fig. 3/4 diagrams.
func (r *Result) RenderGantt(width int) string {
	if width <= 0 {
		width = 80
	}
	scale := float64(width) / r.RoundTime
	var b strings.Builder
	for s := range r.Config.Stages {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, t := range r.Tasks {
			if t.Stage != s || (t.Kind != TaskForward && t.Kind != TaskBackward) {
				continue
			}
			lo := int(t.Start * scale)
			hi := int(t.End * scale)
			if hi >= width {
				hi = width - 1
			}
			ch := byte('0' + t.Micro%10)
			if t.Kind == TaskBackward {
				ch = byte('a' + t.Micro%26)
			}
			for i := lo; i <= hi; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "stage %d |%s|\n", s, row)
	}
	return b.String()
}
