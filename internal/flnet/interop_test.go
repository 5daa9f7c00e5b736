package flnet

// Codec interop: every payload codec — raw, quantized, sparse — must
// converge bit-for-bit identically under chaos and across restarts.

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"ecofl/internal/simnet"
)

func startServerOpts(t *testing.T, init []float64, opts ServerOptions) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerOpts(ln, init, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCodecChaosSoakByteIdentical runs the soak once per payload codec over
// clean links (the per-codec golden) and again under fault injection,
// demanding bit-identical convergence. Codecs are deterministic encoders, so
// the applied-push stream — and therefore the model — must not depend on how
// many retries it took to deliver each update.
func TestCodecChaosSoakByteIdentical(t *testing.T) {
	codecs := []struct {
		name string
		push func(c *Client, update []float64, base int) ([]float64, int, error)
	}{
		{"raw", nil},
		{"quantized", func(c *Client, u []float64, base int) ([]float64, int, error) {
			return c.PushQuantized(u, 1, base)
		}},
		{"sparse", func(c *Client, u []float64, base int) ([]float64, int, error) {
			// Widen the 3-element soak update so the sparse encoding has
			// room to pay; top-8 of 48 keeps the payload well under raw.
			wide := make([]float64, 48)
			for i := range wide {
				wide[i] = u[i%3] * float64(1+i/3)
			}
			return c.PushDelta(wide, 1, base, 8)
		}},
	}
	for _, codec := range codecs {
		codec := codec
		t.Run(codec.name, func(t *testing.T) {
			rounds := soakRounds()
			init := soakInit()
			if codec.name == "sparse" {
				init = make([]float64, 48)
			}
			sparseBefore := srvPayloadSparse.Value()

			golden := startServerOpts(t, init, ServerOptions{Alpha: 0.5})
			gh := newSoakHarness(t, golden, nil)
			gh.push = codec.push
			for i := 0; i < rounds; i++ {
				gh.runRound()
			}
			goldenW, goldenV := golden.Snapshot()

			s := startServerOpts(t, init, ServerOptions{Alpha: 0.5})
			h := newSoakHarness(t, s, func(id int) Dialer {
				// Prob is higher than TestChaosSoak's so the plan still
				// fires within the -short round count.
				return Dialer(simnet.NewChaos(simnet.FaultPlan{
					Seed: int64(id + 71), Mode: simnet.FaultBlackHole, Prob: 0.3, After: 2,
				}).Dialer(nil))
			})
			h.push = codec.push
			for i := 0; i < rounds; i++ {
				h.runRound()
			}
			w, v := s.Snapshot()
			assertSameModel(t, codec.name, w, v, goldenW, goldenV)
			if retries, _ := h.stats(); retries == 0 {
				t.Fatalf("%s: no retries — the fault plan never fired", codec.name)
			}
			if codec.name == "sparse" && srvPayloadSparse.Value() == sparseBefore {
				t.Fatal("no sparse payload ever reached a server — the codec fell back to dense throughout")
			}
		})
	}
}

// TestSparseLosslessBitIdentical pins the overlay-exactness property end to
// end: with topK ≥ len(w), PushDelta transmits exactly the changed
// coordinates as absolute values, and the server's reconstruction is the
// full update bit for bit — so a sparse training run equals a dense one
// exactly. Staleness attenuation is disabled (exp 0) because a sparse push
// reports the reference version, not the pull version, as its base.
func TestSparseLosslessBitIdentical(t *testing.T) {
	const n, rounds = 64, 12
	// Each round flips a quarter of the coordinates of the last ack; the
	// rest stay equal to the reference, which is what makes the lossless
	// sparse encoding smaller than raw.
	update := func(prev []float64, r int) []float64 {
		u := append([]float64(nil), prev...)
		rng := rand.New(rand.NewSource(int64(r + 1)))
		for i := 0; i < n/4; i++ {
			u[rng.Intn(n)] += rng.NormFloat64()
		}
		return u
	}
	run := func(sparse bool) ([]float64, int) {
		s := startServerOpts(t, make([]float64, n), ServerOptions{Alpha: 0.5})
		s.StalenessExp = 0
		c, err := Dial(s.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w, v, err := c.Pull()
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			u := update(w, r)
			if sparse {
				w, v, err = c.PushDelta(u, 1, v, n)
			} else {
				w, v, err = c.Push(u, 1, v)
			}
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		return s.Snapshot()
	}
	sparseBefore := srvPayloadSparse.Value()
	denseW, denseV := run(false)
	sparseW, sparseV := run(true)
	assertSameModel(t, "lossless-sparse", sparseW, sparseV, denseW, denseV)
	if srvPayloadSparse.Value() == sparseBefore {
		t.Fatal("no sparse payload ever flowed — PushDelta fell back to dense throughout")
	}
}

// TestSparseBaseMismatchResync restarts the server from a checkpoint — which
// persists the dedup sequence numbers but not the acked-weights window — and
// checks the sparse path heals itself: the next PushDelta is rejected for a
// base mismatch, silently re-syncs with a dense push, and sparse pushes
// resume on the refreshed reference.
func TestSparseBaseMismatchResync(t *testing.T) {
	const n = 64
	rejectsBefore := srvSparseRejects.Value()
	fallbacksBefore := cliSparseFallbacks.Value()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewServerOpts(ln, make([]float64, n), ServerOptions{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()
	c, err := DialOptions(addr, 0, Options{
		Timeout: time.Second, MaxRetries: 50,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w, v, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	push := func(r int) {
		t.Helper()
		u := append([]float64(nil), w...)
		u[r%n] += float64(r + 1)
		if w, v, err = c.PushDelta(u, 1, v, n); err != nil {
			t.Fatalf("push %d: %v", r, err)
		}
	}
	push(0) // dense bootstrap (no reference yet)
	push(1) // sparse against the ack of push 0
	if got := srvSparseRejects.Value(); got != rejectsBefore {
		t.Fatalf("sparse push against a live window was rejected (%d rejects)", got-rejectsBefore)
	}

	ck := s1.Checkpoint()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	s2, err := NewServerOpts(ln2, make([]float64, n), ServerOptions{Alpha: 0.5, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })

	push(2) // rejected (ack window lost in the restart), re-synced dense
	push(3) // sparse again, against the re-sync's ack
	if got := srvSparseRejects.Value() - rejectsBefore; got == 0 {
		t.Fatal("restart did not trigger a sparse base mismatch")
	}
	if got := cliSparseFallbacks.Value() - fallbacksBefore; got < 2 {
		t.Fatalf("expected ≥2 dense fallbacks (bootstrap + re-sync), saw %d", got)
	}
	if s2.Pushes() != 4 {
		t.Fatalf("pushes across restart = %d, want 4 (exactly-once held)", s2.Pushes())
	}
}

// TestQuantizeIntoReuse pins the destination-passing discipline: repeated
// QuantizeInto/DequantizeInto calls on same-size vectors reuse the caller's
// storage instead of allocating per push.
func TestQuantizeIntoReuse(t *testing.T) {
	w := []float64{0, 0.5, 1, -1}
	var q Quantized
	QuantizeInto(w, &q)
	first := &q.Data[0]
	back := make([]float64, len(w))
	q.DequantizeInto(back)
	for i := range w {
		if diff := w[i] - back[i]; diff > q.Scale/2 || -diff > q.Scale/2 {
			t.Fatalf("element %d: %v vs %v exceeds bound %v", i, w[i], back[i], q.Scale/2)
		}
	}
	QuantizeInto([]float64{9, 8, 7, 6}, &q)
	if &q.Data[0] != first {
		t.Fatal("QuantizeInto reallocated despite sufficient capacity")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		QuantizeInto(w, &q)
		q.DequantizeInto(back)
	}); allocs != 0 {
		t.Fatalf("steady-state quantize/dequantize allocates %.1f per round", allocs)
	}
}
