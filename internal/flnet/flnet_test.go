package flnet

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"ecofl/internal/data"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/nn"
)

func startServer(t *testing.T, init []float64, alpha float64) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerOpts(ln, init, ServerOptions{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPullPushRoundTrip(t *testing.T) {
	init := []float64{1, 2, 3}
	s := startServer(t, init, 0.5)
	c, err := DialOptions(s.Addr(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w, v, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 || w[0] != 1 || w[2] != 3 {
		t.Fatalf("pull got %v v%d", w, v)
	}
	// Push an update: w ← 0.5·old + 0.5·new (staleness 0).
	nw, nv, err := c.Push([]float64{3, 4, 5}, 10, v)
	if err != nil {
		t.Fatal(err)
	}
	if nv != 1 {
		t.Fatalf("version = %d, want 1", nv)
	}
	want := []float64{2, 3, 4}
	for i := range want {
		if nw[i] != want[i] {
			t.Fatalf("mixed weights %v, want %v", nw, want)
		}
	}
}

func TestStaleUpdateAttenuated(t *testing.T) {
	s := startServer(t, []float64{0}, 0.5)
	c, err := DialOptions(s.Addr(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Advance the version with fresh pushes.
	for i := 0; i < 4; i++ {
		if _, _, err := c.Push([]float64{0}, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	// A stale update from version 0 must barely move the model:
	// α = 0.5/(1+4) = 0.1.
	w, _, err := c.Push([]float64{10}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 1.0 {
		t.Fatalf("stale push moved model to %v, want 1.0", w[0])
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	s := startServer(t, []float64{1, 2}, 0.5)
	c, err := DialOptions(s.Addr(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Push([]float64{1}, 1, 0); err == nil {
		t.Fatal("mismatched update must be rejected")
	}
	// The connection stays usable after a rejected push.
	if _, _, err := c.Pull(); err != nil {
		t.Fatalf("connection must survive a rejected push: %v", err)
	}
}

// Real federated training over the wire: several portals concurrently pull,
// train a genuine model on their non-IID shard, and push. The global model
// must learn.
func TestFederatedTrainingOverTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := data.MNISTLike(rng, 1600)
	train, test := ds.Split(0.8)
	_ = train
	shards := data.PartitionByClasses(rng, ds, 8, 2)
	proto := nn.NewMLP(rand.New(rand.NewSource(2)), ds.Dim, 32, ds.NumClasses)
	s := startServer(t, proto.FlatWeights(), 0.5)

	var wg sync.WaitGroup
	for id := 0; id < 8; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialOptions(s.Addr(), id, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			local := proto.Clone()
			lrng := rand.New(rand.NewSource(int64(100 + id)))
			x, y := shards[id].Materialize()
			w, v, err := c.Pull()
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 12; round++ {
				local.SetFlatWeights(w)
				opt := &nn.SGD{LR: 0.05, Mu: 0.05, Global: w}
				for e := 0; e < 2; e++ {
					for _, b := range shards[id].Batches(lrng, 16) {
						local.TrainBatch(b.X, b.Y, opt)
					}
				}
				_ = x
				_ = y
				w, v, err = c.Push(local.FlatWeights(), shards[id].Len(), v)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()

	if s.Pushes() != 96 {
		t.Fatalf("expected 96 pushes, got %d", s.Pushes())
	}
	w, v := s.Snapshot()
	if v != 96 {
		t.Fatalf("version = %d, want 96", v)
	}
	proto.SetFlatWeights(w)
	tx, ty := test.Materialize()
	if acc := proto.Accuracy(tx, ty); acc < 0.6 {
		t.Fatalf("federated training over TCP reached only %.3f accuracy", acc)
	}
}

// Concurrent pushers meet only at the server mutex each handler takes
// itself, so exactly-once accounting is asserted here, under -race: every
// push is applied once, each bumps the version once, and each client sees
// its own replies' versions strictly increase.
func TestConcurrentClientsRace(t *testing.T) {
	const pushers, perClient = 8, 25
	s := startServer(t, make([]float64, 256), 0.3)
	var wg sync.WaitGroup
	for id := 0; id < pushers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialOptions(s.Addr(), id, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			w, v, err := c.Pull()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perClient; i++ {
				for j := range w {
					w[j] += 0.01
				}
				prev := v
				w, v, err = c.Push(w, 1, v)
				if err != nil {
					t.Error(err)
					return
				}
				if v <= prev {
					t.Errorf("client %d push %d: reply version %d after %d, want strictly increasing", id, i, v, prev)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	const want = pushers * perClient
	if s.Pushes() != want {
		t.Fatalf("pushes = %d, want %d", s.Pushes(), want)
	}
	w, v := s.Snapshot()
	if v != want {
		t.Fatalf("final version = %d, want %d", v, want)
	}
	for i, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("weight %d is non-finite: %v", i, x)
		}
	}
	if n := s.Deduped() + s.Quarantined(); n != 0 {
		t.Fatalf("deduped+quarantined = %d on a clean link, want 0", n)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	w := []float64{-1.5, 0, 0.25, 2.5}
	var q Quantized
	back := QuantizeInto(w, &q).DequantizeInto(make([]float64, len(w)))
	for i := range w {
		if d := w[i] - back[i]; d > q.Scale/2+1e-12 || d < -q.Scale/2-1e-12 {
			t.Fatalf("element %d error %v exceeds bound %v", i, d, q.Scale/2)
		}
	}
	// Extremes are exact.
	if back[0] != -1.5 || back[3] != 2.5 {
		t.Fatalf("min/max must round-trip exactly: %v", back)
	}
	// Constant vector.
	for _, v := range QuantizeInto([]float64{3, 3, 3}, &q).DequantizeInto(make([]float64, 3)) {
		if v != 3 {
			t.Fatalf("constant vector must round-trip, got %v", v)
		}
	}
	// Empty vector.
	if len(QuantizeInto(nil, &q).DequantizeInto(nil)) != 0 {
		t.Fatal("empty vector must stay empty")
	}
}

func TestPushQuantized(t *testing.T) {
	s := startServer(t, []float64{0, 0, 0, 0}, 0.5)
	c, err := DialOptions(s.Addr(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, v, err := c.PushQuantized([]float64{2, 4, 6, 8}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version %d", v)
	}
	// Mixed at α=0.5 with a dequantized update: ≈ {1,2,3,4} within the
	// quantization error bound (scale = 6/255).
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if d := w[i] - want[i]; d > 0.02 || d < -0.02 {
			t.Fatalf("mixed[%d] = %v, want ≈%v", i, w[i], want[i])
		}
	}
}

// Quantized federated training must converge like full precision.
func TestFederatedTrainingQuantizedUplink(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := data.MNISTLike(rng, 1200)
	_, test := ds.Split(0.8)
	shards := data.PartitionByClasses(rng, ds, 6, 2)
	proto := nn.NewMLP(rand.New(rand.NewSource(12)), ds.Dim, 32, ds.NumClasses)
	s := startServer(t, proto.FlatWeights(), 0.5)

	var wg sync.WaitGroup
	for id := 0; id < 6; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialOptions(s.Addr(), id, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			local := proto.Clone()
			lrng := rand.New(rand.NewSource(int64(200 + id)))
			w, v, err := c.Pull()
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 10; round++ {
				local.SetFlatWeights(w)
				opt := &nn.SGD{LR: 0.05, Mu: 0.05, Global: w}
				for _, b := range shards[id].Batches(lrng, 16) {
					local.TrainBatch(b.X, b.Y, opt)
				}
				w, v, err = c.PushQuantized(local.FlatWeights(), shards[id].Len(), v)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	w, _ := s.Snapshot()
	proto.SetFlatWeights(w)
	tx, ty := test.Materialize()
	if acc := proto.Accuracy(tx, ty); acc < 0.55 {
		t.Fatalf("quantized federated training reached only %.3f", acc)
	}
}

func TestPushWithoutPayloadRejected(t *testing.T) {
	s := startServer(t, []float64{1}, 0.5)
	c, err := DialOptions(s.Addr(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.roundTrip(&request{Kind: wire.KindPush, BaseVersion: 0}); err == nil {
		t.Fatal("payload-less push must be rejected")
	}
}
