package runtime

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/leakcheck"
)

// failAfterConn errors every write after the first n succeed — a
// deterministic link fault.
type failAfterConn struct {
	net.Conn
	mu   sync.Mutex
	left int
}

var errInjected = errors.New("injected link fault")

func (c *failAfterConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return 0, errInjected
	}
	c.left--
	return c.Conn.Write(b)
}

// swallowAfterConn black-holes every write after the first n: it claims
// success and delivers nothing, so only deadlines can expose it.
type swallowAfterConn struct {
	net.Conn
	mu   sync.Mutex
	left int
}

func (c *swallowAfterConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return len(b), nil
	}
	c.left--
	return c.Conn.Write(b)
}

// TestAbortDiscardsRoundAndUnwinds injects a deterministic mid-round link
// fault and checks the full abort contract: TrainSyncRound returns a
// *RoundError, no weights were committed, every stage goroutine and link
// writer unwinds, and a retry on fresh links produces the exact weights of
// a fault-free round.
func TestAbortDiscardsRoundAndUnwinds(t *testing.T) {
	const seed = 21
	rng := rand.New(rand.NewSource(4))
	x, labels := makeData(rng, 24, 10, 4)

	tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "abort", 10, []int{14, 12}, 4)
	failing := func(i int) (net.Conn, net.Conn, error) {
		a, b := net.Pipe()
		if i == 0 {
			return &failAfterConn{Conn: a, left: 2}, b, nil
		}
		return a, b, nil
	}
	dp, err := NewDistributed(tr, []int{1, 2}, failing)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), tr.Network().FlatWeights()...)
	baseline := leakcheck.Baseline()

	opt := &nn.SGD{LR: 0.1}
	_, err = dp.TrainSyncRound(x, labels, 6, opt)
	var re *RoundError
	if !errors.As(err, &re) {
		t.Fatalf("want *RoundError, got %v", err)
	}
	if !errors.Is(re, errInjected) && re.Error() == "" {
		t.Fatalf("round error lost the cause: %v", re)
	}
	if len(re.Stages) == 0 {
		t.Fatal("RoundError names no failed stages")
	}
	st := dp.LastRoundStats()
	if st == nil || !st.Aborted || st.WallTime <= 0 {
		t.Fatalf("aborted round not recorded: %+v", st)
	}
	after := tr.Network().FlatWeights()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("aborted round committed weight changes")
		}
	}
	leakcheck.Check(t, baseline)

	// Retry the identical mini-batch on fresh clean links: the result must
	// be bit-identical to a fault-free round (the healing contract).
	dpClean, err := NewDistributed(tr, []int{1, 2}, PipeLinks())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dpClean.TrainSyncRound(x, labels, 6, opt); err != nil {
		t.Fatalf("retry round: %v", err)
	}
	ref := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "abort", 10, []int{14, 12}, 4)
	pref, err := NewDistributed(ref, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pref.TrainSyncRound(x, labels, 6, &nn.SGD{LR: 0.1}); err != nil {
		t.Fatal(err)
	}
	got, want := tr.Network().FlatWeights(), ref.Network().FlatWeights()
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("retry after abort diverged from fault-free round")
		}
	}
}

// TestBlackHoledFrameDetected swallows a frame mid-round: without recv
// deadlines the receiving stage would park in its read forever (the
// pre-hardening deadlock). The deadline plus budget must turn it into a
// bounded abort.
func TestBlackHoledFrameDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, labels := makeData(rng, 12, 8, 3)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(8)), "bh", 8, []int{10}, 3)
	swallow := func(i int) (net.Conn, net.Conn, error) {
		a, b := net.Pipe()
		return &swallowAfterConn{Conn: a, left: 1}, b, nil
	}
	dp, err := NewDistributed(tr, []int{1}, swallow)
	if err != nil {
		t.Fatal(err)
	}
	dp.SetLinkOptions(LinkOptions{RecvTimeout: 100 * time.Millisecond, RecvBudget: 400 * time.Millisecond})
	baseline := leakcheck.Baseline()
	start := time.Now()
	if _, err := dp.TrainSyncRound(x, labels, 4, &nn.SGD{LR: 0.1}); err == nil {
		t.Fatal("black-holed frame went undetected")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("detection took %v, budget was 400ms", el)
	}
	leakcheck.Check(t, baseline)
}

// TestDialRetriesRecoverTransientFailure fails the first two dials of a
// link; with retries enabled the round must proceed, without them it must
// surface the dial error.
func TestDialRetriesRecoverTransientFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, labels := makeData(rng, 12, 8, 3)

	flaky := func() Dialer {
		var mu sync.Mutex
		failures := 2
		return func(i int) (net.Conn, net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			if failures > 0 {
				failures--
				return nil, nil, errInjected
			}
			a, b := net.Pipe()
			return a, b, nil
		}
	}

	tr := model.NewTrainableMLP(rand.New(rand.NewSource(8)), "dial", 8, []int{10}, 3)
	dp, err := NewDistributed(tr, []int{1}, flaky())
	if err != nil {
		t.Fatal(err)
	}
	dp.SetLinkOptions(LinkOptions{DialRetries: 3})
	if _, err := dp.TrainSyncRound(x, labels, 4, &nn.SGD{LR: 0.1}); err != nil {
		t.Fatalf("round failed despite dial retries: %v", err)
	}

	tr2 := model.NewTrainableMLP(rand.New(rand.NewSource(8)), "dial2", 8, []int{10}, 3)
	dp2, err := NewDistributed(tr2, []int{1}, flaky())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp2.TrainSyncRound(x, labels, 4, &nn.SGD{LR: 0.1}); !errors.Is(err, errInjected) {
		t.Fatalf("without retries want the dial error, got %v", err)
	}
}

// TestFailedDialLeaksNothing partitions link 1 of a 3-stage pipeline with
// heartbeats on: every attempted round dials link 0, fails on link 1 and
// gives up. No writer goroutine or heartbeat ticker may outlive the attempt
// (links built before the failing dial used to: 2 goroutines per round).
func TestFailedDialLeaksNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, labels := makeData(rng, 12, 8, 3)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(8)), "leak", 8, []int{10, 9}, 3)
	pipes := PipeLinks()
	dp, err := NewDistributed(tr, []int{1, 2}, func(i int) (net.Conn, net.Conn, error) {
		if i == 1 {
			return nil, nil, errInjected
		}
		return pipes(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.SetLinkOptions(LinkOptions{Heartbeat: 50 * time.Millisecond, SendTimeout: time.Second, RecvTimeout: time.Second})
	baseline := leakcheck.Baseline()
	for round := 0; round < 10; round++ {
		if _, err := dp.TrainSyncRound(x, labels, 4, &nn.SGD{LR: 0.1}); !errors.Is(err, errInjected) {
			t.Fatalf("round %d: want the dial error, got %v", round, err)
		}
	}
	leakcheck.Check(t, baseline)
}

// TestTCPLinksMidStreamClose severs a real TCP link mid-round and checks
// the abort path on OS sockets, not just net.Pipe.
func TestTCPLinksMidStreamClose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, labels := makeData(rng, 12, 8, 3)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(8)), "tcp", 8, []int{10}, 3)
	tcp := TCPLinks()
	sever := func(i int) (net.Conn, net.Conn, error) {
		up, down, err := tcp(i)
		if err != nil {
			return nil, nil, err
		}
		return &failAfterConn{Conn: up, left: 1}, down, nil
	}
	dp, err := NewDistributed(tr, []int{1}, sever)
	if err != nil {
		t.Fatal(err)
	}
	dp.SetLinkOptions(LinkOptions{RecvTimeout: 200 * time.Millisecond})
	baseline := leakcheck.Baseline()
	var re *RoundError
	if _, err := dp.TrainSyncRound(x, labels, 4, &nn.SGD{LR: 0.1}); !errors.As(err, &re) {
		t.Fatalf("want *RoundError on severed TCP link, got %v", err)
	}
	leakcheck.Check(t, baseline)
}

// TestThrottledLinksPropagateDialError checks the wrapper's error path.
func TestThrottledLinksPropagateDialError(t *testing.T) {
	bad := func(int) (net.Conn, net.Conn, error) { return nil, nil, errInjected }
	dial := ThrottledLinks(bad, 1e6, time.Millisecond)
	if _, _, err := dial(0); !errors.Is(err, errInjected) {
		t.Fatalf("want inner dial error, got %v", err)
	}
}

// TestValidateFrame is the hostile-frame table: every row is a frame a
// correct peer can never send to a stage waiting for a 2×3 tensor, and recv
// — where validation happens, on the header before the payload is read, on
// the values after — must reject each as wire.ErrFrame.
func TestValidateFrame(t *testing.T) {
	shape := []int{2, 3}
	micro, tt, err := byteLink(frame(4, shape, make([]float64, 6)...)).recv(shape)
	if err != nil || micro != 4 || !slices.Equal(tt.Shape, shape) || len(tt.Data) != 6 {
		t.Fatalf("valid frame rejected: micro=%d err=%v", micro, err)
	}
	// edited is a well-formed 2×3 tensor frame with one header field changed.
	edited := func(edit func(h *wire.Header)) []byte {
		h := wire.Header{Kind: wire.KindTensor, Codec: wire.CodecRaw, B: 2, PayloadLen: 48}
		edit(&h)
		return rawFrame(h, make([]byte, h.PayloadLen+h.TrailerLen))
	}
	badMagic := frame(0, shape, make([]float64, 6)...)
	badMagic[3] = 'T'
	hostile := map[string][]byte{
		"negative micro":    frame(-2, shape, make([]float64, 6)...),
		"zero rows":         frame(0, []int{0, 3}),
		"wrong rows":        frame(0, []int{3, 2}, make([]float64, 6)...),
		"wrong width":       frame(0, []int{2, 4}, make([]float64, 8)...),
		"length mismatch":   frame(0, shape, make([]float64, 5)...),
		"NaN":               frame(0, shape, 1, math.NaN(), 0, 0, 0, 0),
		"Inf":               frame(0, shape, math.Inf(-1), 1, 0, 0, 0, 0),
		"segment kind":      edited(func(h *wire.Header) { h.Kind = wire.KindSegment }),
		"push kind":         edited(func(h *wire.Header) { h.Kind = wire.KindPush }),
		"quant codec":       edited(func(h *wire.Header) { h.Codec = wire.CodecQuant }),
		"trailer":           edited(func(h *wire.Header) { h.TrailerLen = 8 }),
		"bad magic":         badMagic,
		"fat heartbeat":     rawFrame(wire.Header{Kind: wire.KindHeartbeat, PayloadLen: 8}, make([]byte, 8)),
		"heartbeat trailer": rawFrame(wire.Header{Kind: wire.KindHeartbeat, TrailerLen: 8}, make([]byte, 8)),
	}
	for name, raw := range hostile {
		if _, _, err := byteLink(raw).recv(shape); !errors.Is(err, wire.ErrFrame) {
			t.Errorf("%s: want wire.ErrFrame, got %v", name, err)
		}
	}
}

// TestRecvRejectsHostilePeer drives link.recv against a raw peer that sends
// hostile frames directly, bypassing the sending link's discipline.
func TestRecvRejectsHostilePeer(t *testing.T) {
	send := func(frames ...[]byte) *link {
		a, b := net.Pipe()
		go func() {
			for _, f := range frames {
				if _, err := a.Write(f); err != nil {
					return
				}
			}
		}()
		t.Cleanup(func() { a.Close(); b.Close() })
		return &link{conn: b, opts: LinkOptions{RecvTimeout: time.Second}}
	}

	if _, _, err := send(frame(0, []int{1, 3}, 1, math.NaN(), 3)).recv([]int{1, 3}); !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("NaN-poisoned frame accepted: %v", err)
	}
	if _, _, err := send(frame(1, []int{1, 4}, 1)).recv([]int{1, 4}); !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("length-mismatched frame accepted: %v", err)
	}
	// Heartbeats are skipped; the data frame behind them is delivered.
	micro, tt, err := send(heartbeatFrame, heartbeatFrame, frame(2, []int{1, 2}, 4, 5)).recv([]int{1, 2})
	if err != nil || micro != 2 || tt.Data[1] != 5 {
		t.Fatalf("data frame behind heartbeats lost: micro=%d err=%v", micro, err)
	}
	// A heartbeat-only stream must exhaust the budget, not spin forever.
	hb := make([][]byte, 64)
	for i := range hb {
		hb[i] = heartbeatFrame
	}
	l := send(hb...)
	l.opts = LinkOptions{RecvTimeout: 50 * time.Millisecond, RecvBudget: 120 * time.Millisecond}
	if _, _, err := l.recv([]int{1, 2}); err == nil {
		t.Fatal("heartbeat-only stream satisfied a data recv")
	}
}

// TestTruncatedFrameStream feeds a prefix of a valid frame — the severed
// connection — and expects a read error, not a hang or panic.
func TestTruncatedFrameStream(t *testing.T) {
	raw := frame(0, []int{1, 4}, 1, 2, 3, 4)
	raw = raw[:len(raw)-16] // the header and half the payload

	a, b := net.Pipe()
	go func() {
		a.Write(raw)
		a.Close()
	}()
	defer b.Close()
	l := &link{conn: b, opts: LinkOptions{RecvTimeout: time.Second}}
	if _, _, err := l.recv([]int{1, 4}); err == nil {
		t.Fatal("truncated frame decoded successfully")
	}
}
