package flnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/obs/leakcheck"
)

// fastOptions keeps retry tests snappy: short deadlines, tight backoff.
func fastOptions(retries int) Options {
	return Options{
		Timeout:     150 * time.Millisecond,
		MaxRetries:  retries,
		BackoffBase: 4 * time.Millisecond,
		BackoffMax:  30 * time.Millisecond,
	}
}

// A server that shakes hands and then never replies must not hang the
// client: the round-trip deadline fires and bounded retries give up.
func TestDeadlineOnHungServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				fw := wire.Writer{W: conn}
				fw.WriteFrame(&wire.Header{Kind: wire.KindHelloAck}, nil, nil)
				io.Copy(io.Discard, conn) // read forever, never answer
			}()
		}
	}()
	c, err := DialOptions(ln.Addr().String(), 0, fastOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, _, err := c.Pull(); err == nil {
		t.Fatal("pull against a mute server must fail")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("bounded retries took %v — deadline not enforced", elapsed)
	}
	if retries, _ := c.Stats(); retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
}

// A server bounce is invisible to a retrying client: the next round trip
// reconnects, and the resumed server's state carries the old pushes.
func TestClientRidesThroughServerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	init := []float64{0, 0}
	s1 := NewServer(ln, init, 0.5)
	addr := s1.Addr()
	c, err := DialOptions(addr, 0, fastOptions(60))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Push([]float64{2, 4}, 1, 0); err != nil {
		t.Fatal(err)
	}

	// Kill the server and restart it from its in-memory checkpoint on the
	// same address, with a downtime window the client's backoff must span.
	ck := s1.Checkpoint()
	s1.Close()
	var mu sync.Mutex
	var s2 *Server
	go func() {
		time.Sleep(60 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		srv, err := NewServerOpts(ln2, init, ServerOptions{Alpha: 0.5, Resume: ck})
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		s2 = srv
		mu.Unlock()
	}()

	w, v, err := c.Push([]float64{4, 8}, 1, 1)
	if err != nil {
		t.Fatalf("push across the bounce: %v", err)
	}
	if v != 2 {
		t.Fatalf("version after resume = %d, want 2", v)
	}
	// w = 0.5·(0.5·{2,4}) + 0.5·{4,8} = {2.5, 5}
	if w[0] != 2.5 || w[1] != 5 {
		t.Fatalf("weights after resume = %v, want [2.5 5]", w)
	}
	retries, reconnects := c.Stats()
	if retries == 0 || reconnects == 0 {
		t.Fatalf("bounce must be visible in stats: retries=%d reconnects=%d", retries, reconnects)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := s2.Pushes(); got != 2 {
		t.Fatalf("resumed server pushes = %d, want 2 (1 restored + 1 new)", got)
	}
	s2.Close()
}

// blackHole swallows every write: the peer never sees it.
type blackHole struct{ net.Conn }

func (blackHole) Write(p []byte) (int, error) { return len(p), nil }

// A black-holed hello is an ordinary transport failure: the retry loop
// redials, says hello again in the same protocol, and the client ends up
// connected.
func TestBlackHoledHelloRetried(t *testing.T) {
	s := startServer(t, []float64{1, 2}, 0.5)
	var dialed []net.Conn
	opts := fastOptions(5)
	opts.Dialer = func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		dialed = append(dialed, conn)
		if len(dialed) == 2 {
			return blackHole{conn}, nil
		}
		return conn, nil
	}
	c, err := DialOptions(s.Addr(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dialed[0].Close() // the link dies; the redial's hello then vanishes
	if _, _, err := c.Pull(); err != nil {
		t.Fatalf("pull after a black-holed hello: %v", err)
	}
	retries, reconnects := c.Stats()
	if len(dialed) != 3 || retries != 2 || reconnects != 1 {
		t.Fatalf("dials=%d retries=%d reconnects=%d, want 3/2/1 (lost hello redialed once)",
			len(dialed), retries, reconnects)
	}
	if _, v, err := c.Push([]float64{3, 4}, 1, 0); err != nil || v != 1 {
		t.Fatalf("push over the recovered connection: v%d, %v", v, err)
	}
}

// A retried push whose original landed must be acked from the dedup
// window, not mixed twice — the FedAsync update is not idempotent.
func TestRetriedPushDeduplicated(t *testing.T) {
	s := startServer(t, []float64{0}, 0.5)
	c, err := Dial(s.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := &request{Kind: wire.KindPush, ClientID: 3, Seq: 7, Weights: []float64{10}, NumSamples: 1}
	first, err := c.roundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	// Same Seq again — the "ack was lost, client retried" wire sequence.
	second, err := c.roundTrip(&request{Kind: wire.KindPush, ClientID: 3, Seq: 7, Weights: []float64{10}, NumSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pushes() != 1 {
		t.Fatalf("pushes = %d, want 1 (retry must not re-apply)", s.Pushes())
	}
	if s.Deduped() != 1 {
		t.Fatalf("deduped = %d, want 1", s.Deduped())
	}
	if second.Version != first.Version || second.Weights[0] != first.Weights[0] {
		t.Fatalf("dedup ack %v/v%d differs from original %v/v%d",
			second.Weights, second.Version, first.Weights, first.Version)
	}
	if w, _ := s.Snapshot(); w[0] != 5 { // 0.5·0 + 0.5·10, applied once
		t.Fatalf("weights = %v, want [5]", w)
	}
	// An older straggler Seq is also acked (with the current model), never
	// re-applied.
	older, err := c.roundTrip(&request{Kind: wire.KindPush, ClientID: 3, Seq: 2, Weights: []float64{99}, NumSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pushes() != 1 || s.Deduped() != 2 {
		t.Fatalf("after straggler: pushes=%d deduped=%d, want 1/2", s.Pushes(), s.Deduped())
	}
	if older.Weights[0] != 5 {
		t.Fatalf("straggler ack weights = %v, want current model [5]", older.Weights)
	}
	// A fresh Seq advances normally.
	if _, err := c.roundTrip(&request{Kind: wire.KindPush, ClientID: 3, Seq: 8, Weights: []float64{10}, NumSamples: 1}); err != nil {
		t.Fatal(err)
	}
	if s.Pushes() != 2 {
		t.Fatalf("fresh seq must apply: pushes = %d", s.Pushes())
	}
}

// Sequence numbers are per client: client 9's Seq 7 must not collide with
// client 3's.
func TestDedupIsPerClient(t *testing.T) {
	s := startServer(t, []float64{0}, 0.5)
	for _, id := range []int{3, 9} {
		c, err := Dial(s.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.roundTrip(&request{Kind: wire.KindPush, ClientID: id, Seq: 7, Weights: []float64{1}, NumSamples: 1}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if s.Pushes() != 2 || s.Deduped() != 0 {
		t.Fatalf("pushes=%d deduped=%d, want 2/0", s.Pushes(), s.Deduped())
	}
}

// Application-level rejections are deterministic server answers: the client
// must not burn retries on them.
func TestRejectionNotRetried(t *testing.T) {
	s := startServer(t, []float64{1, 2}, 0.5)
	c, err := DialOptions(s.Addr(), 0, fastOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Push([]float64{1}, 1, 0); err == nil {
		t.Fatal("mismatched update must be rejected")
	}
	if retries, _ := c.Stats(); retries != 0 {
		t.Fatalf("rejection burned %d retries", retries)
	}
	// The connection survives: the rejection did not poison the stream.
	if _, _, err := c.Pull(); err != nil {
		t.Fatalf("connection must survive a rejected push: %v", err)
	}
}

// Close is idempotent and severs handlers: a server with idle-but-alive
// portal connections must shut down promptly instead of waiting on a read.
func TestServerCloseWithIdleConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln, []float64{1}, 0.5)
	var clients []*Client
	for id := 0; id < 3; id++ {
		c, err := Dial(s.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	_ = clients // all three handlers now sit reading on live conns
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on idle connections")
	}
}

// Client.Close is idempotent, interrupts backoff, and a telemetry flush
// racing Close can never write to (or re-dial) a closed connection.
func TestClientCloseIdempotentAndFlushRace(t *testing.T) {
	s := startServer(t, []float64{1}, 0.5)
	c, err := DialOptions(s.Addr(), 0, fastOptions(20))
	if err != nil {
		t.Fatal(err)
	}
	stop := c.EnableTelemetry(nil, nil, "test", time.Millisecond)
	defer stop()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.FlushTelemetry()
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("first close: %v", err)
	}
	closedAt := time.Now()
	_, reconnectsAtClose := c.Stats()
	if err := c.Close(); err != nil {
		t.Fatalf("second close must be a nil-error no-op, got %v", err)
	}
	wg.Wait()
	if waited := time.Since(closedAt); waited > 2*time.Second {
		t.Fatalf("flushers survived %v past Close — backoff not interrupted", waited)
	}
	// After Close, round trips fail fast with ErrClosed and never redial.
	if _, _, err := c.Pull(); !errors.Is(err, ErrClosed) {
		t.Fatalf("pull after close = %v, want ErrClosed", err)
	}
	if err := c.FlushTelemetry(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after close = %v, want nil or ErrClosed", err)
	}
	if _, reconnects := c.Stats(); reconnects != reconnectsAtClose {
		t.Fatalf("client re-dialed after Close: %d → %d", reconnectsAtClose, reconnects)
	}
}

// The whole transport must unwind cleanly: after clients and the server are
// closed, every handler goroutine and the accept loop has to exit. The
// shared leakcheck helper (internal/obs/leakcheck) is the same assertion the
// pipeline link layer and the self-healing executor run after their faults.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	baseline := leakcheck.Baseline()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln, []float64{0, 0, 0}, 0.5)
	var clients []*Client
	for id := 0; id < 4; id++ {
		c, err := DialOptions(s.Addr(), id, fastOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if _, _, err := c.Push([]float64{1, 2, 3}, 1, 0); err != nil {
			t.Fatalf("client %d push: %v", id, err)
		}
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, baseline)
}
