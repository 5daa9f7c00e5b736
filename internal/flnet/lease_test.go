package flnet

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/obs/journal"
	"ecofl/internal/obs/journal/journaltest"
)

// leaseClock is an injectable membership clock: tests advance it by hand and
// call ReapExpiredLeases themselves, so lease expiry is deterministic.
type leaseClock struct {
	mu sync.Mutex
	t  time.Time
}

func newLeaseClock() *leaseClock { return &leaseClock{t: time.Unix(0, 0)} }

func (lc *leaseClock) Now() time.Time {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.t
}

func (lc *leaseClock) Advance(d time.Duration) {
	lc.mu.Lock()
	lc.t = lc.t.Add(d)
	lc.mu.Unlock()
}

// openServer starts a server the caller closes itself — a restart in the
// middle of a test, or a Close whose effect is the thing under test.
func openServer(tb testing.TB, init []float64, opts ServerOptions) *Server {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewServerOpts(ln, init, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// startLeaseServer starts a server with lease membership on an injected
// clock. The reaper still runs on its wall-time ticker, but with the clock
// frozen between Advance calls it only ever observes what the test arranged.
func startLeaseServer(t *testing.T, init []float64, ttl time.Duration, lc *leaseClock, jn *journal.Fleet) *Server {
	t.Helper()
	s := openServer(t, init, ServerOptions{
		Alpha:    0.5,
		LeaseTTL: ttl,
		LeaseNow: lc.Now,
		Journal:  jn,
	})
	t.Cleanup(func() { s.Close() })
	return s
}

// TestLeaseLifecycleOrdering drives one client through the full lease state
// machine on a virtual clock and pins the journal ordering:
// grant < renew < expire < readmit on the server lane.
func TestLeaseLifecycleOrdering(t *testing.T) {
	lc := newLeaseClock()
	jn := journal.NewFleet(256, journal.New(-1, 256))
	s := startLeaseServer(t, []float64{0, 0}, 10*time.Second, lc, jn)
	journaltest.DumpOnFailure(t, 64, jn.Local())

	c, err := Dial(s.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Pull(); err != nil { // first contact: grant
		t.Fatal(err)
	}
	if got := s.Members(); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("Members after grant = %v, want [7]", got)
	}
	lc.Advance(5 * time.Second)
	if _, _, err := c.Pull(); err != nil { // mid-TTL contact: renew
		t.Fatal(err)
	}
	lc.Advance(11 * time.Second) // past the renewed TTL
	if n := s.ReapExpiredLeases(); n != 1 {
		t.Fatalf("ReapExpiredLeases = %d, want 1", n)
	}
	if got := s.SessionCount(); got != 0 {
		t.Fatalf("SessionCount after reap = %d, want 0", got)
	}
	if _, _, err := c.Pull(); err != nil { // return: readmit
		t.Fatal(err)
	}
	if got := s.Members(); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("Members after readmit = %v, want [7]", got)
	}

	order := map[string]int{}
	for i, e := range jn.Local().Events() {
		if _, seen := order[e.Kind]; !seen {
			order[e.Kind] = i
		}
	}
	for _, kind := range []string{"lease.grant", "lease.renew", "lease.expire", "lease.readmit"} {
		if _, ok := order[kind]; !ok {
			t.Fatalf("journal missing %s (saw %v)", kind, order)
		}
	}
	if !(order["lease.grant"] < order["lease.renew"] &&
		order["lease.renew"] < order["lease.expire"] &&
		order["lease.expire"] < order["lease.readmit"]) {
		t.Errorf("lease lifecycle out of order: %v", order)
	}
}

// TestLeaseExpiredPushResyncs pins the push re-sync path: a push landing on
// an expired lease is rejected server-side, the rejection re-admits the
// client, and the client's transparent retry (same Seq) applies exactly once.
func TestLeaseExpiredPushResyncs(t *testing.T) {
	lc := newLeaseClock()
	s := startLeaseServer(t, []float64{0, 0}, 10*time.Second, lc, nil)
	c, err := Dial(s.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Push([]float64{2, 2}, 5, 0); err != nil { // grant + apply
		t.Fatal(err)
	}
	lc.Advance(time.Minute)
	s.ReapExpiredLeases()
	if got := s.SessionCount(); got != 0 {
		t.Fatalf("SessionCount after reap = %d, want 0", got)
	}

	// The next push rides the lease-expired rejection: pushRoundTrip retries
	// the identical request once and it lands on the fresh lease.
	w, v, err := c.Push([]float64{4, 4}, 5, 1)
	if err != nil {
		t.Fatalf("push after lease expiry should re-sync transparently: %v", err)
	}
	if v != 2 {
		t.Fatalf("version after re-synced push = %d, want 2", v)
	}
	if s.Pushes() != 2 {
		t.Fatalf("server applied %d pushes, want 2 (the rejected attempt must not count)", s.Pushes())
	}
	if got := s.Members(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Members after re-sync = %v, want [3]", got)
	}
	_ = w
}

// TestLeaseExpiryDropsSparseRef ties the two re-sync paths together: lease
// expiry drops the dedup ack, so a returning delta client falls back to a
// dense push instead of overlaying a reference the server no longer holds.
func TestLeaseExpiryDropsSparseRef(t *testing.T) {
	lc := newLeaseClock()
	s := startLeaseServer(t, make([]float64, 64), 10*time.Second, lc, nil)
	c, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	up := make([]float64, 64)
	up[3] = 1
	if _, _, err := c.PushDelta(up, 5, 0, 4); err != nil { // dense re-sync, acked
		t.Fatal(err)
	}
	up[9] = 2
	if _, _, err := c.PushDelta(up, 5, 1, 4); err != nil { // true sparse push
		t.Fatal(err)
	}

	lc.Advance(time.Minute)
	s.ReapExpiredLeases()

	// The ack is gone: this delta must survive via the lease retry and then
	// the dense fallback rather than corrupting state or failing.
	up[17] = 3
	if _, _, err := c.PushDelta(up, 5, 2, 4); err != nil {
		t.Fatalf("delta push after lease expiry: %v", err)
	}
	if s.Pushes() != 3 {
		t.Fatalf("server applied %d pushes, want 3", s.Pushes())
	}
}

// TestLeaseDisabledIsInert pins the zero-value path: without LeaseTTL no
// leases are granted, membership is empty, and reaping is a nop.
func TestLeaseDisabledIsInert(t *testing.T) {
	s := startServer(t, []float64{0}, 0.5)
	c, err := Dial(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Push([]float64{1}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Members()); n != 0 {
		t.Fatalf("lease-less server has %d members, want 0", n)
	}
	if n := s.ReapExpiredLeases(); n != 0 {
		t.Fatalf("lease-less reap expired %d, want 0", n)
	}
}

// TestLeaseConcurrentChurn hammers the session table from many clients over
// real connections while the clock jumps and the reaper runs — the -race soak
// for lease transitions, dedup and mixing sharing s.mu.
func TestLeaseConcurrentChurn(t *testing.T) {
	lc := newLeaseClock()
	s := startLeaseServer(t, []float64{0, 0, 0}, 50*time.Millisecond, lc, nil)

	const clients = 8
	driverDone := make(chan struct{})
	go func() { // churn driver: expire the whole fleet over and over
		defer close(driverDone)
		for i := 0; i < 200; i++ {
			lc.Advance(60 * time.Millisecond)
			s.ReapExpiredLeases()
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), id)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			v := 0
			for round := 0; round < 30; round++ {
				// A push may land on a lease the driver expired again after
				// pushRoundTrip's single retry; under deliberate churn that
				// is expected, so keep pushing until one sticks.
				for {
					_, nv, err := c.Push([]float64{1, 1, 1}, 1, v)
					if err == nil {
						v = nv
						break
					}
					if !strings.Contains(err.Error(), leaseExpired) {
						t.Errorf("client %d round %d: %v", id, round, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	<-driverDone
	if s.Pushes() != clients*30 {
		t.Errorf("server applied %d pushes, want %d", s.Pushes(), clients*30)
	}
}

// TestReaperKeepsLiveAck pins lease expiry and the ack drop as one atomic
// step. Were they two (lease marked expired in one critical section, ack
// deleted in a later one), a client could be re-admitted and land a push in
// between, and the late drop would strip the ack of a live lease — the
// client's next top-k push would silently re-sync dense, so the converged
// model would depend on goroutine scheduling. Push-only clients keep s.mu
// contended, a clock lapses every lease every 2 ms, and after every applied
// push the invariant is read in one critical section: ack missing ⇒ lease
// marked expired. A two-step expiry fails this in every run (24–39 of 1,280
// pushes; 1–5 under -race).
func TestReaperKeepsLiveAck(t *testing.T) {
	const (
		clients = 16
		dim     = 20_000 // mixing holds s.mu ~20 µs: the size at which the old race showed most
		rounds  = 80
	)
	lc := newLeaseClock()
	s := startLeaseServer(t, make([]float64, dim), 50*time.Millisecond, lc, nil)

	stop, driverDone := make(chan struct{}), make(chan struct{})
	go func() { // expire the whole fleet over and over
		defer close(driverDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			lc.Advance(60 * time.Millisecond)
			s.ReapExpiredLeases()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var violations atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			req := &request{Kind: wire.KindPush, ClientID: id, Weights: make([]float64, dim), NumSamples: 1}
			for req.Seq = 1; req.Seq <= rounds; req.Seq++ {
				// A lease-expired rejection re-admitted this client; retry
				// the same Seq until it lands, as pushRoundTrip does.
				for s.dispatch(req).Err != "" {
				}
				s.mu.Lock()
				if ss := s.sessions[id]; ss.ack == nil && !ss.expired {
					violations.Add(1)
				}
				s.mu.Unlock()
			}
		}(id)
	}
	wg.Wait()
	close(stop)
	<-driverDone
	if s.Pushes() != clients*rounds {
		t.Errorf("server applied %d pushes, want %d", s.Pushes(), clients*rounds)
	}
	if v := violations.Load(); v != 0 {
		t.Errorf("%d of %d applied pushes left a live lease without its ack", v, clients*rounds)
	}
}

// TestCloseReturnsSessionsToGauge pins ecofl_flnet_sessions_active as a
// process-wide count of sessions on servers that are still up: a server that
// closes with live leases gives them back, so a process that runs servers in
// sequence (the scenario runner, a test binary) does not accumulate phantoms.
func TestCloseReturnsSessionsToGauge(t *testing.T) {
	start := srvSessionsActive.Value()
	for round := 0; round < 2; round++ {
		lc := newLeaseClock()
		s := openServer(t, []float64{0}, ServerOptions{LeaseTTL: 10 * time.Second, LeaseNow: lc.Now})
		for id := 0; id < 3; id++ {
			s.dispatch(&request{Kind: wire.KindPull, ClientID: id})
		}
		lc.Advance(time.Minute)
		s.ReapExpiredLeases()
		s.dispatch(&request{Kind: wire.KindPull, ClientID: 0}) // one returns
		s.dispatch(&request{Kind: wire.KindPull, ClientID: 9}) // one is new
		if got := srvSessionsActive.Value() - start; got != 2 || s.SessionCount() != 2 {
			t.Fatalf("server %d up: gauge moved by %v, SessionCount %d, want 2 and 2", round, got, s.SessionCount())
		}
		s.Close()
		if got := srvSessionsActive.Value(); got != start {
			t.Fatalf("server %d closed: gauge = %v, want its starting value %v", round, got, start)
		}
	}
}
