package executor

// Flight-recorder coverage for the heal state machine: the journal must
// capture detect → abort → repartition → ship → resume in causal order, with
// injected chaos faults logging their cause into the same timeline.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/pipeline/runtime"
)

// kindIndexAfter returns the index of the first event of the given kind at or
// after from, or -1.
func kindIndexAfter(evs []journal.Event, kind string, from int) int {
	for i := from; i < len(evs); i++ {
		if evs[i].Kind == kind {
			return i
		}
	}
	return -1
}

// assertHealOrder walks the journal from the first exec.kill and requires the
// §4.4 state machine's steps to appear after it, in order: detection, abort,
// repartition, segment shipping, resume, and the replayed round's commit.
func assertHealOrder(t *testing.T, evs []journal.Event) {
	t.Helper()
	at := kindIndexAfter(evs, "exec.kill", 0)
	if at < 0 {
		t.Fatalf("no exec.kill event in journal:\n%s", journal.Timeline(evs))
	}
	for _, kind := range []string{
		"exec.detect", "exec.abort", "exec.repartition",
		"exec.ship-segment", "exec.resume", "exec.round-commit",
	} {
		next := kindIndexAfter(evs, kind, at+1)
		if next < 0 {
			t.Fatalf("no %s event after index %d (%s):\n%s", kind, at, evs[at].Kind, journal.Timeline(evs))
		}
		at = next
	}
}

// TestJournalHealTimeline kills a mid-fleet device and asserts the flight
// recorder holds the full heal sequence in causal order, correlated to the
// aborted round.
func TestJournalHealTimeline(t *testing.T) {
	const seed, mbs, rounds, lr = 42, 6, 3, 0.05
	rng := rand.New(rand.NewSource(7))
	x, labels := makeData(rng, 24, 12, 4)

	rec := journal.New(0, 512)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "ref", 12, []int{14, 12, 10}, 4)
	exec, err := New(Config{
		Trainable:      tr,
		Devices:        fleet(),
		MicroBatchSize: mbs,
		LinkOptions:    runtime.LinkOptions{RecvTimeout: 2 * time.Second, DialRetries: 2},
		Journal:        rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	exec.ScheduleKill(1, 1)
	opt := &nn.SGD{LR: lr}
	for r := 0; r < rounds; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}

	evs := rec.Events()
	assertHealOrder(t, evs)

	// Every event is on node 0 and the kill correlates to the doomed round
	// and the killed device.
	killIdx := kindIndexAfter(evs, "exec.kill", 0)
	if k := evs[killIdx]; k.Round != 1 || k.Client != 1 {
		t.Fatalf("exec.kill uncorrelated: %+v", k)
	}
	// The last repartition names the survivor layout the run ended on.
	var layout []string
	for _, st := range exec.Stages() {
		layout = append(layout, fmt.Sprintf("%s[%d,%d)", st.Device.Name, st.From, st.To))
	}
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == "exec.repartition" {
			if got, want := evs[i].Attrs["layout"], strings.Join(layout, " | "); got != want {
				t.Fatalf("exec.repartition layout %q, want %q", got, want)
			}
			break
		}
	}
	// The replayed round commits under the same round id it aborted under.
	detIdx := kindIndexAfter(evs, "exec.detect", killIdx)
	comIdx := kindIndexAfter(evs, "exec.round-commit", detIdx)
	if evs[comIdx].Round != evs[detIdx].Round {
		t.Fatalf("replayed commit round %d != aborted round %d:\n%s",
			evs[comIdx].Round, evs[detIdx].Round, journal.Timeline(evs))
	}
	// One committed round per training round, each with a loss attr.
	commits := 0
	for _, e := range evs {
		if e.Kind == "exec.round-commit" {
			if e.Attrs["loss"] == "" {
				t.Fatalf("round-commit without loss attr: %+v", e)
			}
			commits++
		}
	}
	if commits != rounds {
		t.Fatalf("%d exec.round-commit events, want %d:\n%s", commits, rounds, journal.Timeline(evs))
	}

	var tsvec []float64
	for _, e := range evs {
		tsvec = append(tsvec, e.TS)
	}
	for i := 1; i < len(tsvec); i++ {
		if tsvec[i] < tsvec[i-1] {
			t.Fatalf("journal timestamps regress at %d:\n%s", i, journal.Timeline(evs))
		}
	}

	var seg *journal.Event
	for i := range evs {
		if evs[i].Kind == "exec.ship-segment" {
			seg = &evs[i]
			break
		}
	}
	if seg.Attrs["bytes"] == "" || seg.Attrs["from"] == "" || seg.Attrs["to"] == "" {
		t.Fatalf("ship-segment missing migration attrs: %+v", seg)
	}
}
