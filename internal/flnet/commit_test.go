package flnet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ecofl/internal/fl"
	"ecofl/internal/fl/robust"
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
	s.stalenessExp = 0
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
	s.alpha = 0.5
	rep := push(&request{ClientID: 0, Seq: 2, BaseVersion: 1, DenseLen: 4, SparseIdx: []uint32{2}, SparseVals: []float64{100}})
	if want := []float64{5, 11, 65, 23}; !sameBits(rep.Weights, want) {
		t.Fatalf("sparse push mixed to %v, want %v", rep.Weights, want)
	}
}

// refCommit is the server's commit as it was written before the mix
// kernels: one loop per codec, with a per-element finiteness branch and the
// displacement summed alongside the mix. It is the definition of the model,
// the quarantine verdict and the norm that admitLocked must reproduce bit
// for bit. ref is the weights of the sparse push's base.
func refCommit(old []float64, req *request, ref []float64, alpha float64) (w []float64, norm float64, finite bool) {
	w = make([]float64, len(old))
	var sum float64
	switch {
	case req.Weights != nil:
		for i, v := range req.Weights {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, false
			}
			d := v - old[i]
			sum += d * d
			w[i] = (1-alpha)*old[i] + alpha*v
		}
	case req.Quant != nil:
		q := req.Quant
		for i, b := range q.Data {
			v := q.Min + float64(b)*q.Scale
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, false
			}
			d := v - old[i]
			sum += d * d
			w[i] = (1-alpha)*old[i] + alpha*v
		}
	default:
		idx, vals, j := req.SparseIdx, req.SparseVals, 0
		for i, r := range ref {
			u := r
			if j < len(idx) && int(idx[j]) == i {
				u = vals[j]
				d := u - r
				sum += d * d
				j++
			}
			w[i] = (1-alpha)*old[i] + alpha*u
		}
	}
	return w, math.Sqrt(sum), true
}

// TestCommitMatchesReference drives each codec's pushes through dispatch,
// with the norm gate off and armed, and holds every commit to refCommit: the
// model Float64bits-equal, the same verdict (applied, "non-finite" or
// "norm"), and with the gate armed the same norms observed — the server's
// tracker equal to one fed refCommit's norms in the same call pattern (norms
// are non-negative and finite, so == is bit equality). Client 0 pushes in
// the codec under test; client 1 pushes raw between, so a sparse base is
// not the model it mixes over. A non-finite update goes as the client sends
// it: raw, or quantized with a finite range that overflows once
// dequantized; a sparse frame cannot carry one (wire.ParseSparse), so the
// sparse client sends it raw. The model is 203 weights, so every vector
// tail of the kernels runs.
func TestCommitMatchesReference(t *testing.T) {
	const n, steps, alpha = 203, 60, 0.4
	for _, codec := range []string{"raw", "quant", "sparse"} {
		for _, gate := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/gate=%v", codec, gate), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				init := make([]float64, n)
				for i := range init {
					init[i] = rng.NormFloat64()
				}
				s := openServer(t, init, ServerOptions{Alpha: alpha, NormGate: gate, NormGateWarmup: 4})
				defer s.Close()
				var tracker *robust.NormTracker
				if gate {
					tracker = robust.NewNormTracker(0, 4, 0)
				}
				verdicts := map[string]int{}
				push := func(req *request) {
					t.Helper()
					s.mu.Lock()
					old, ver := slices.Clone(s.cur.weights), s.cur.version
					var ref []float64
					if ss := s.sessions[req.ClientID]; ss != nil && ss.ack != nil {
						ref = slices.Clone(ss.ack.weights)
					}
					s.mu.Unlock()
					want, norm, finite := refCommit(old, req, ref, fl.StalenessAlpha(alpha, float64(ver-req.BaseVersion), 1))
					verdict := "applied"
					switch {
					case !finite:
						verdict = "non-finite"
					case tracker != nil:
						if th, ok := tracker.Threshold(); ok && norm > th {
							verdict = "norm"
							break
						}
						tracker.Observe(norm)
						tracker.Threshold()
					}
					verdicts[verdict]++
					wantV, wantQ := ver+1, 0
					if verdict != "applied" {
						want, wantV, wantQ = old, ver, 1
					}
					q := s.Quarantined()
					req.Kind = wire.KindPush
					rep := s.dispatch(req)
					s.release(rep.held)
					if rep.Err != "" {
						t.Fatal(rep.Err)
					}
					if got := s.Quarantined() - q; got != wantQ {
						t.Fatalf("push %d of client %d: %d quarantined, reference verdict %s", req.Seq, req.ClientID, got, verdict)
					}
					if got, v := s.Snapshot(); v != wantV || !sameBits(got, want) {
						t.Fatalf("push %d of client %d (%s): model v%d differs from the reference's v%d", req.Seq, req.ClientID, verdict, v, wantV)
					}
					if tracker != nil {
						s.mu.Lock()
						same := reflect.DeepEqual(s.normGate, tracker)
						s.mu.Unlock()
						if !same {
							t.Fatalf("push %d of client %d: the gate observed norms other than the reference's", req.Seq, req.ClientID)
						}
					}
				}
				update := func(spread float64) []float64 {
					s.mu.Lock()
					u := slices.Clone(s.cur.weights)
					s.mu.Unlock()
					for i := range u {
						u[i] += spread * rng.NormFloat64()
					}
					return u
				}
				var ackV int
				for step := 1; step <= steps; step++ {
					spread := 0.1
					if step%9 == 0 {
						spread = 1e3 // an outlier the armed gate quarantines
					}
					u := update(spread)
					req := &request{ClientID: 0, Seq: uint64(step), Weights: u, BaseVersion: ackV}
					switch {
					case step%7 == 0:
						u[rng.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[step%3]
						if codec == "quant" {
							// A finite range whose top bytes overflow.
							q := &Quantized{Data: make([]uint8, n), Min: 1e308, Scale: 1e307}
							for i := range q.Data {
								q.Data[i] = uint8(rng.Intn(256))
							}
							req.Weights, req.Quant = nil, q
						}
					case codec == "quant":
						req.Weights, req.Quant = nil, QuantizeInto(u, &Quantized{})
					case codec == "sparse" && step > 1: // from step 2 on, client 0 has an ack
						req.Weights, req.DenseLen = nil, n
						for i := range u {
							if rng.Intn(4) == 0 {
								req.SparseIdx = append(req.SparseIdx, uint32(i))
								req.SparseVals = append(req.SparseVals, u[i])
							}
						}
					}
					push(req)
					ackV = s.sessions[0].ack.version
					if step%2 == 0 {
						push(&request{ClientID: 1, Seq: uint64(step), Weights: update(0.1), BaseVersion: ackV - 1})
					}
				}
				for _, v := range []string{"applied", "non-finite", "norm"} {
					if verdicts[v] == 0 && (v != "norm" || gate) {
						t.Errorf("no push got the verdict %q: %v", v, verdicts)
					}
				}
			})
		}
	}
}

// BenchmarkCommit times one commit (admitLocked) of a 100 000-weight push per
// codec, with the norm gate off as on ingest-dense and ingest-fleet: raw, an
// int8 payload, and a top-1 000 sparse overlay on a base one version old.
func BenchmarkCommit(b *testing.B) {
	const n, k = 100_000, 1_000
	rng := rand.New(rand.NewSource(1))
	vec := func() []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		return w
	}
	init, u := vec(), vec()
	sparse := &request{DenseLen: n}
	for i := 0; i < k; i++ {
		sparse.SparseIdx = append(sparse.SparseIdx, uint32(i*(n/k)))
		sparse.SparseVals = append(sparse.SparseVals, u[i*(n/k)])
	}
	for _, c := range []struct {
		name string
		req  *request
	}{
		{"raw", &request{Weights: u}},
		{"quant", &request{Quant: QuantizeInto(u, &Quantized{})}},
		{"sparse", sparse},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := openServer(b, init, ServerOptions{Alpha: 0.5})
			defer s.Close()
			s.mu.Lock()
			defer s.mu.Unlock()
			ref := s.cur.hold()
			defer s.release(ref)
			c.req.BaseVersion = ref.version
			commit := func() {
				if q, err := s.admitLocked(c.req, ref); q != "" || err != nil {
					b.Fatal(q, err)
				}
			}
			for i := 0; i < spareModels; i++ { // fill the recycler: no model is allocated below
				commit()
			}
			b.SetBytes(8 * n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit()
			}
		})
	}
}

// TestLargeFramesAcrossConnections: two sessions on one server push
// 100 000-weight updates concurrently, each alternating raw and int8, so
// every payload is over 64 KiB and is read into a buffer that wire's spare
// list passes between the two connections. Every reply must be
// Float64bits-equal to the model refCommit builds from the pushes in the
// order the server versioned them: a payload view that outlived its frame,
// or a buffer handed out twice, would have mixed the other connection's
// bytes.
func TestLargeFramesAcrossConnections(t *testing.T) {
	const n, pushes, alpha = 100_000, 8, 0.5
	s := openServer(t, make([]float64, n), ServerOptions{Alpha: alpha})
	defer s.Close()
	type push struct {
		req   request // the update as the server must have read it
		base  int
		reply []float64
	}
	byVersion := make([]*push, 2*pushes+1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), id)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			v := 0
			for i := 0; i < pushes; i++ {
				w := make([]float64, n)
				for j := range w {
					w[j] = rng.NormFloat64()
				}
				p := &push{req: request{Weights: w}, base: v}
				var next int
				if (i+id)%2 == 0 {
					p.reply, next, err = c.Push(w, 1, v)
				} else {
					p.req = request{Quant: QuantizeInto(w, new(Quantized))}
					p.reply, next, err = c.PushQuantized(w, 1, v)
				}
				if err != nil {
					t.Errorf("session %d push %d: %v", id, i, err)
					return
				}
				mu.Lock()
				byVersion[next] = p
				mu.Unlock()
				v = next
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	model := make([]float64, n)
	for ver := 1; ver < len(byVersion); ver++ {
		p := byVersion[ver]
		if p == nil {
			t.Fatalf("no reply carries v%d", ver)
		}
		want, _, _ := refCommit(model, &p.req, nil, fl.StalenessAlpha(alpha, float64(ver-1-p.base), s.stalenessExp))
		if !sameBits(p.reply, want) {
			t.Fatalf("the reply for v%d differs from the reference mix of the pushes before it", ver)
		}
		model = want
	}
}
