package flnet

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
)

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSharedModelLifetime holds a pull reply and a session's ack across far
// more commits than the recycler keeps, while other sessions push, replay
// their last push and lapse concurrently, and snapshots and checkpoints copy
// the model: neither may change by a bit. A reference released twice — on
// the dedup path, on lease expiry — recycles a model under a holder, and the
// next commit overwrites it. Each dispatch stands in for a handler, which
// releases its reply after the flush.
func TestSharedModelLifetime(t *testing.T) {
	const (
		dim     = 256
		pushers = 4
		ops     = 150
		ttl     = time.Minute
	)
	lc := newLeaseClock()
	s := openServer(t, make([]float64, dim), ServerOptions{Alpha: 0.5, LeaseTTL: ttl, LeaseNow: lc.Now})
	defer s.Close()
	update := func(rng *rand.Rand) []float64 {
		w := make([]float64, dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		return w
	}
	// dispatch is one handler round: a push rejected for its lapsed lease
	// is resent once, as the client does.
	dispatch := func(req *request) reply {
		rep := s.dispatch(req)
		if strings.Contains(rep.Err, leaseExpired) {
			rep = s.dispatch(req)
		}
		return rep
	}
	rng := rand.New(rand.NewSource(1))

	// Client 1 pushes once and goes away: its ack is the model client 2's
	// pull holds, until expiry takes the ack. Client 3's ack is replayed by
	// every driver step below, which also keeps its lease live.
	s.release(dispatch(&request{Kind: wire.KindPush, ClientID: 1, Seq: 1, Weights: update(rng)}).held)
	pull := dispatch(&request{Kind: wire.KindPull, ClientID: 2})
	pullW := append([]float64(nil), pull.Weights...)
	ack := dispatch(&request{Kind: wire.KindPush, ClientID: 3, Seq: 1, Weights: update(rng), BaseVersion: 1})
	ackW, ackV := append([]float64(nil), ack.Weights...), ack.Version
	s.release(ack.held)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 2)))
			var last reply
			var lastW []float64
			var seq uint64
			id := 10 + 100*g
			for op := 0; op < ops; op++ {
				switch {
				case op%10 == 9: // leave this session to lapse; come back to an old one at times
					id++
					if rng.Intn(3) == 0 {
						id -= 2
					}
					seq, last = 100*uint64(op), reply{}
				case op%4 == 3 && last.Weights != nil: // the retry of a push whose reply was lost
					rep := dispatch(&request{Kind: wire.KindPush, ClientID: id, Seq: seq, Weights: update(rng)})
					if rep.Version == last.Version && !sameBits(rep.Weights, lastW) {
						t.Errorf("a dedup replay of v%d differs from the reply first sent for it", rep.Version)
					}
					s.release(rep.held)
					continue
				case op%7 == 5:
					w, _ := s.Snapshot()
					if len(w) != dim {
						t.Errorf("a snapshot of %d weights", len(w))
					}
					s.Checkpoint()
				}
				seq++
				rep := dispatch(&request{Kind: wire.KindPush, ClientID: id, Seq: seq, Weights: update(rng), BaseVersion: last.Version})
				last, lastW = rep, append(lastW[:0], rep.Weights...)
				s.release(rep.held)
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	// The driver alone moves the clock, a third of a TTL a step: client 1
	// lapses by the fourth, and so does every session a pusher has left.
	replayed := true
	for step := 0; step < 4 || !finished(); step++ {
		rep := dispatch(&request{Kind: wire.KindPush, ClientID: 3, Seq: 1, Weights: update(rng)})
		if replayed && (rep.Version != ackV || !sameBits(rep.Weights, ackW)) {
			t.Errorf("client 3's dedup replay at step %d is not the ack it was first sent", step)
			replayed = false
		}
		s.release(rep.held)
		lc.Advance(ttl / 3)
		s.ReapExpiredLeases()
	}
	if s.Pushes() < 10*spareModels {
		t.Fatalf("only %d commits: the recycler was never cycled", s.Pushes())
	}
	if !sameBits(pull.Weights, pullW) {
		t.Fatal("a held pull reply changed under later commits")
	}
	s.mu.Lock()
	ss1, ss3 := s.sessions[1], s.sessions[3]
	if !ss1.expired || ss1.ack != nil {
		t.Errorf("client 1 never lapsed (expired %v, ack held %v): expiry went unexercised", ss1.expired, ss1.ack != nil)
	}
	if ss3.ack == nil || ss3.ack.version != ackV || !sameBits(ss3.ack.weights, ackW) {
		t.Error("client 3's ack changed while its session held it")
	}
	s.mu.Unlock()
	s.release(pull.held)
}

// TestSparseOverlayMixesTowardAck pins what a sparse push means: the update
// is the model the client was acked with, overlaid with the pushed values,
// so the coordinates it did not send mix toward that ack and not toward the
// current model.
func TestSparseOverlayMixesTowardAck(t *testing.T) {
	s := openServer(t, []float64{9, 9, 9, 9}, ServerOptions{Alpha: 1})
	defer s.Close()
	s.StalenessExp = 0
	push := func(req *request) reply {
		req.Kind = wire.KindPush
		rep := s.dispatch(req)
		if rep.Err != "" {
			t.Fatal(rep.Err)
		}
		return rep
	}
	// With α = 1 a dense push becomes the model: client 0 is acked with
	// [0 2 4 6] at v1, then client 1 moves the model to [10 20 30 40].
	push(&request{ClientID: 0, Seq: 1, Weights: []float64{0, 2, 4, 6}})
	push(&request{ClientID: 1, Seq: 1, Weights: []float64{10, 20, 30, 40}, BaseVersion: 1})
	s.Alpha = 0.5
	rep := push(&request{ClientID: 0, Seq: 2, BaseVersion: 1, DenseLen: 4, SparseIdx: []uint32{2}, SparseVals: []float64{100}})
	if want := []float64{5, 11, 65, 23}; !sameBits(rep.Weights, want) {
		t.Fatalf("sparse push mixed to %v, want %v", rep.Weights, want)
	}
}
