package flnet

// The chaos soak: portal↔server rounds driven over simnet fault-injecting
// links, asserting that the hardened transport converges to the exact same
// model — bit for bit — as a fault-free run. The harness pushes deterministic
// per-(client, round) updates in a fixed sequential order, so the final
// weights depend only on the number of rounds completed; any duplicate or
// lost push changes them. Retry/reconnect/dedup counters prove the faults
// actually fired and were absorbed rather than never happening.

import (
	"net"
	"testing"
	"time"

	"ecofl/internal/obs/journal"
	"ecofl/internal/obs/journal/journaltest"
	"ecofl/internal/simnet"
)

const soakClients = 4

func soakRounds() int {
	if testing.Short() {
		return 3
	}
	return 8
}

func soakInit() []float64 { return make([]float64, 3) }

// soakUpdate is client id's deterministic local update at round r. It does
// not depend on the pulled weights, so the applied-push stream is fixed by
// the (sequential) push order alone.
func soakUpdate(id, r int) []float64 {
	return []float64{
		float64(id + 1),
		float64(r+1) / 3,
		float64((id + 1) * (r + 1)),
	}
}

// soakHarness drives sequential round-robin pull+push rounds against a
// server. Sequential matters: with one RPC in flight at a time, the order in
// which pushes are applied — and therefore every staleness-attenuated mixing
// step — is identical across runs, faulty or not.
type soakHarness struct {
	t       *testing.T
	s       *Server
	clients []*Client
	rounds  int
	// push, when set, replaces the plain dense Push for every client — the
	// codec interop tests route rounds through PushQuantized or PushDelta
	// this way and still ride the same deterministic schedule.
	push func(c *Client, update []float64, base int) ([]float64, int, error)
}

// newSoakHarness dials soakClients portals; dialer (optional) supplies a
// fault-injecting link per client. Retries are effectively unbounded so a
// push only fails the test if the transport truly cannot recover.
func newSoakHarness(t *testing.T, s *Server, dialer func(id int) Dialer) *soakHarness {
	return newSoakHarnessOpts(t, s, dialer, nil)
}

// newSoakHarnessOpts additionally lets mod customize each client's Options —
// TestChaosSoak attaches a flight recorder per client through it.
func newSoakHarnessOpts(t *testing.T, s *Server, dialer func(id int) Dialer, mod func(id int, o *Options)) *soakHarness {
	t.Helper()
	h := &soakHarness{t: t, s: s}
	for id := 0; id < soakClients; id++ {
		opts := Options{
			Timeout:     150 * time.Millisecond,
			MaxRetries:  400,
			BackoffBase: 2 * time.Millisecond,
			BackoffMax:  40 * time.Millisecond,
		}
		if dialer != nil {
			opts.Dialer = dialer(id)
		}
		if mod != nil {
			mod(id, &opts)
		}
		c, err := DialOptions(s.Addr(), id, opts)
		if err != nil {
			t.Fatalf("dial client %d: %v", id, err)
		}
		t.Cleanup(func() { c.Close() })
		h.clients = append(h.clients, c)
	}
	return h
}

func (h *soakHarness) runRound() {
	h.t.Helper()
	r := h.rounds
	for id, c := range h.clients {
		_, base, err := c.Pull()
		if err != nil {
			h.t.Fatalf("round %d client %d pull: %v", r, id, err)
		}
		if h.push != nil {
			_, _, err = h.push(c, soakUpdate(id, r), base)
		} else {
			_, _, err = c.Push(soakUpdate(id, r), 1, base)
		}
		if err != nil {
			h.t.Fatalf("round %d client %d push: %v", r, id, err)
		}
	}
	h.rounds++
}

func (h *soakHarness) stats() (retries, reconnects int64) {
	for _, c := range h.clients {
		r, rc := c.Stats()
		retries += r
		reconnects += rc
	}
	return
}

// goldenSoak runs the harness over clean links and returns the reference
// model every chaos run must reproduce exactly.
func goldenSoak(t *testing.T, rounds int) ([]float64, int) {
	t.Helper()
	s := startServer(t, soakInit(), 0.5)
	h := newSoakHarness(t, s, nil)
	for i := 0; i < rounds; i++ {
		h.runRound()
	}
	if retries, reconnects := h.stats(); retries != 0 || reconnects != 0 {
		t.Fatalf("clean run must not retry (retries=%d reconnects=%d)", retries, reconnects)
	}
	w, v := s.Snapshot()
	return w, v
}

func assertSameModel(t *testing.T, label string, gotW []float64, gotV int, wantW []float64, wantV int) {
	t.Helper()
	if gotV != wantV {
		t.Fatalf("%s: version %d, golden %d — pushes were lost or duplicated", label, gotV, wantV)
	}
	for i := range wantW {
		if gotW[i] != wantW[i] {
			t.Fatalf("%s: weights diverge from golden at [%d]:\n got  %v\n want %v", label, i, gotW, wantW)
		}
	}
}

// TestChaosSoak runs the soak under every client-side fault mode and demands
// bit-identical convergence with the fault-free golden run.
func TestChaosSoak(t *testing.T) {
	rounds := soakRounds()
	goldenW, goldenV := goldenSoak(t, rounds)

	plans := []simnet.FaultPlan{
		{Mode: simnet.FaultDrop, Prob: 0.12, After: 2},
		{Mode: simnet.FaultStall, Prob: 0.08, After: 2, Stall: 300 * time.Millisecond},
		{Mode: simnet.FaultBlackHole, Prob: 0.12, After: 2},
		{Mode: simnet.FaultSever, Prob: 0.12, After: 2},
		{Mode: simnet.FaultPartition, Prob: 0.08, After: 2, Partition: 120 * time.Millisecond},
	}
	for _, plan := range plans {
		plan := plan
		t.Run(plan.Mode.String(), func(t *testing.T) {
			s := startServer(t, soakInit(), 0.5)
			// Flight recorders: one lane per client, with the chaos state
			// logging each injected fault into the lane it hits. A failing
			// soak dumps the merged timeline — the forensic record of which
			// fault the transport failed to absorb.
			recs := make([]*journal.Recorder, soakClients)
			srcs := make([]journaltest.Source, soakClients)
			for id := range recs {
				recs[id] = journal.New(id, 512)
				srcs[id] = recs[id]
			}
			journaltest.DumpOnFailure(t, 100, srcs...)
			h := newSoakHarnessOpts(t, s, func(id int) Dialer {
				p := plan
				p.Seed = int64(100*int(plan.Mode) + id + 1)
				c := simnet.NewChaos(p)
				c.SetJournal(recs[id], id)
				return Dialer(c.Dialer(nil))
			}, func(id int, o *Options) { o.Journal = recs[id] })
			for i := 0; i < rounds; i++ {
				h.runRound()
			}
			w, v := s.Snapshot()
			assertSameModel(t, plan.Mode.String(), w, v, goldenW, goldenV)
			if retries, _ := h.stats(); retries == 0 {
				t.Fatalf("%s: no retries — the fault plan never fired, soak proved nothing", plan.Mode)
			}
		})
	}
}

// TestChaosLostAckDedup injects faults on the server side of the link, so
// replies are lost after the push was already mixed in. The retried push
// carries the same sequence number and must be answered from the dedup
// window — without dedup the update would be applied twice and the weights
// would drift from golden.
func TestChaosLostAckDedup(t *testing.T) {
	chaos := simnet.NewChaos(simnet.FaultPlan{
		Seed: 99, Mode: simnet.FaultBlackHole, Prob: 0.15, After: 4,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerOpts(ln, soakInit(), ServerOptions{Alpha: 0.5, WrapConn: chaos.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	h := newSoakHarness(t, s, nil)
	// Run until at least one applied-push ack has provably been lost and
	// deduplicated (the seeded schedule makes this a handful of rounds; the
	// cap is a safety net, not an expectation).
	for i := 0; i < soakRounds() || (s.Deduped() == 0 && i < 60); i++ {
		h.runRound()
	}
	if s.Deduped() == 0 {
		t.Fatal("no push was ever deduplicated — lost-ack path not exercised")
	}

	goldenW, goldenV := goldenSoak(t, h.rounds)
	w, v := s.Snapshot()
	assertSameModel(t, "lost-ack", w, v, goldenW, goldenV)
	if s.Pushes() != goldenV {
		t.Fatalf("accepted pushes %d != golden version %d", s.Pushes(), goldenV)
	}
}

// TestChaosRestartMidSoak kills the server halfway through a faulty soak and
// restarts it from its checkpoint on the same address. Clients ride through
// on retry/reconnect, the restored sequence numbers keep dedup exact across
// the crash, and the final model still matches golden bit for bit.
func TestChaosRestartMidSoak(t *testing.T) {
	rounds := soakRounds()
	goldenW, goldenV := goldenSoak(t, rounds)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewServerOpts(ln, soakInit(), ServerOptions{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()
	h := newSoakHarness(t, s1, func(id int) Dialer {
		return Dialer(simnet.NewChaos(simnet.FaultPlan{
			Seed: int64(id + 7), Mode: simnet.FaultDrop, Prob: 0.10, After: 2,
		}).Dialer(nil))
	})

	var s2 *Server
	for i := 0; i < rounds; i++ {
		if i == rounds/2 {
			ck := h.s.Checkpoint()
			if err := h.s.Close(); err != nil {
				t.Fatal(err)
			}
			ln2, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			s2, err = NewServerOpts(ln2, soakInit(), ServerOptions{Alpha: 0.5, Resume: ck})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s2.Close() })
			h.s = s2
		}
		h.runRound()
	}

	w, v := s2.Snapshot()
	assertSameModel(t, "restart", w, v, goldenW, goldenV)
	if _, reconnects := h.stats(); reconnects == 0 {
		t.Fatal("no client ever reconnected — the bounce was not observed")
	}
	if s2.Pushes() != goldenV {
		t.Fatalf("accepted pushes across the crash %d != golden %d", s2.Pushes(), goldenV)
	}
}
