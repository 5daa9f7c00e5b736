package runtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/leakcheck"
	"ecofl/internal/pipeline"
)

// countingDialer wraps a Dialer, counting the dials of each link and keeping
// every connection it hands out, in dial order.
type countingDialer struct {
	inner Dialer
	mu    sync.Mutex
	dials map[int]int
	conns []*trackedConn
}

// trackedConn records whether its own Close was called.
type trackedConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *trackedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func countDials(inner Dialer) *countingDialer {
	return &countingDialer{inner: inner, dials: map[int]int{}}
}

func (c *countingDialer) dial(i int) (net.Conn, net.Conn, error) {
	up, down, err := c.inner(i)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dials[i]++
	tu, td := &trackedConn{Conn: up}, &trackedConn{Conn: down}
	c.conns = append(c.conns, tu, td)
	return tu, td, nil
}

// perLink returns the dial count of links 0…n−1.
func (c *countingDialer) perLink(n int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, n)
	for i := range out {
		out[i] = c.dials[i]
	}
	return out
}

// open returns the indices, in dial order, of the connections handed out so
// far that nobody has closed.
func (c *countingDialer) open() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i, tc := range c.conns {
		if !tc.closed.Load() {
			out = append(out, i)
		}
	}
	return out
}

// lifetimeModel is a four-stage MLP (three links) and its cut points.
func lifetimeModel() (*model.Trainable, []int) {
	return model.NewTrainableMLP(rand.New(rand.NewSource(13)), "life", 10, []int{14, 12, 10}, 4), []int{1, 2, 3}
}

// lockstep trains dp and a sequential reference on the same model side by
// side and fails at the first loss that differs in any bit.
type lockstep struct {
	t         *testing.T
	dp        *DistPipeline
	ref       sequential
	optD, opt *nn.SGD
}

func newLockstep(t *testing.T, dial Dialer) *lockstep {
	tr, cuts := lifetimeModel()
	ref := newSequential(tr.Clone())
	dp, err := NewDistributed(tr, cuts, dial)
	if err != nil {
		t.Fatal(err)
	}
	return &lockstep{t: t, dp: dp, ref: ref, optD: &nn.SGD{LR: 0.05, Momentum: 0.5}, opt: &nn.SGD{LR: 0.05, Momentum: 0.5}}
}

// round trains one clean round on both and compares the losses.
func (ls *lockstep) round(r int) {
	ls.t.Helper()
	x, y := makeData(rand.New(rand.NewSource(int64(r))), 26, 10, 4)
	want, err := ls.ref.TrainSyncRound(x, y, 4, ls.opt)
	if err != nil {
		ls.t.Fatal(err)
	}
	got, err := ls.dp.TrainSyncRound(x, y, 4, ls.optD)
	if err != nil {
		ls.t.Fatalf("round %d: %v", r, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		ls.t.Fatalf("round %d: loss %v over links, %v sequential", r, got, want)
	}
}

// done checks the weights bit for bit.
func (ls *lockstep) done() {
	ls.t.Helper()
	if err := sameBits(ls.dp.Network(), ls.ref.Network()); err != nil {
		ls.t.Fatal(err)
	}
}

// cutKeepalive is an endpoint whose keepalives, once its first `data` data
// frames are through, park until their write deadline is expired and then
// report half the frame written: a keepalive that close cut off mid-frame
// after the round's last data frame, leaving the round itself clean.
type cutKeepalive struct {
	net.Conn
	data    int
	expired chan struct{}
	once    sync.Once
	cut     atomic.Bool
}

func (c *cutKeepalive) SetWriteDeadline(t time.Time) error {
	if !t.IsZero() && t.Before(time.Now()) {
		c.once.Do(func() { close(c.expired) })
	}
	return c.Conn.SetWriteDeadline(t)
}

func (c *cutKeepalive) Write(b []byte) (int, error) {
	if h, err := wire.ParseHeader(b, wire.Limits{}); err != nil || h.Kind != wire.KindHeartbeat {
		c.data--
	} else if c.data <= 0 {
		<-c.expired
		c.cut.Store(true)
		return len(b) / 2, os.ErrDeadlineExceeded
	}
	return c.Conn.Write(b)
}

// stallConn black-holes every write while stall is set.
type stallConn struct {
	net.Conn
	stall *atomic.Bool
}

func (c *stallConn) Write(b []byte) (int, error) {
	if c.stall.Load() {
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// TestLinksOutliveCleanRounds pins the lifetime of a pipeline's connections:
// a pipeline dials each link on its first round and reuses it for every
// round that ends clean, and exactly the events that force a re-dial — an
// aborted round, a write error on a link, Close — close the connections, so
// the next round dials each link once more. Through all of it the pipeline
// stays bit-identical to the sequential reference.
func TestLinksOutliveCleanRounds(t *testing.T) {
	const links, rounds = 3, 5
	for name, inner := range map[string]Dialer{"pipe": PipeLinks(), "tcp": TCPLinks()} {
		t.Run("clean/"+name, func(t *testing.T) {
			cd := countDials(inner)
			ls := newLockstep(t, cd.dial)
			ls.dp.SetLinkOptions(executorLinkOptions)
			for r := 0; r < rounds; r++ {
				ls.round(r)
			}
			ls.done()
			if got := cd.perLink(links); fmt.Sprint(got) != "[1 1 1]" {
				t.Fatalf("%d clean rounds dialed the links %v times, want once each", rounds, got)
			}
			ls.dp.Close()
		})
	}

	t.Run("abort", func(t *testing.T) {
		baseline := leakcheck.Baseline()
		cd := countDials(severedOnce(1, true, 2))
		ls := newLockstep(t, cd.dial)
		x, y := makeData(rand.New(rand.NewSource(0)), 26, 10, 4)
		if _, err := ls.dp.TrainSyncRound(x, y, 4, ls.optD); !errors.As(err, new(*RoundError)) {
			t.Fatalf("want the severed round to abort, got %v", err)
		}
		if open := cd.open(); len(open) > 0 {
			t.Fatalf("the aborted round left connections %v open", open)
		}
		for r := 0; r < rounds; r++ {
			ls.round(r) // round 0 retries the aborted batch
		}
		ls.done()
		if got := cd.perLink(links); fmt.Sprint(got) != "[2 2 2]" {
			t.Fatalf("an abort and %d clean rounds dialed the links %v times, want twice each", rounds, got)
		}
		ls.dp.Close()
		leakcheck.Check(t, baseline)
	})

	t.Run("cut-keepalive", func(t *testing.T) {
		// Two stages, two micro-batches. Stage 0 emulates a device that
		// takes 20 ms an op, so stage 1's gradient link idles after its last
		// frame and writes a keepalive that close cuts off mid-frame once
		// the round is done.
		const mbs, rows = 4, 8
		var ka *cutKeepalive
		var first atomic.Bool
		cd := countDials(func(i int) (net.Conn, net.Conn, error) {
			up, down := net.Pipe()
			if first.CompareAndSwap(false, true) {
				ka = &cutKeepalive{Conn: down, data: rows / mbs, expired: make(chan struct{})}
				return up, ka, nil
			}
			return up, down, nil
		})
		tr := model.NewTrainableMLP(rand.New(rand.NewSource(3)), "ka", 10, []int{12}, 4)
		dp, err := NewDistributed(tr, []int{1}, cd.dial)
		if err != nil {
			t.Fatal(err)
		}
		dp.SetLinkOptions(LinkOptions{Heartbeat: time.Millisecond})
		dp.Emulate([]pipeline.StageTimes{{Tf: 0.02, Tb: 0.02}})
		x, y := makeData(rand.New(rand.NewSource(4)), rows, 10, 4)
		opt := &nn.SGD{LR: 0.05}
		if _, err := dp.TrainSyncRound(x, y, mbs, opt); err != nil {
			t.Fatalf("the round whose keepalive is cut at its end: %v", err)
		}
		if !ka.cut.Load() {
			t.Fatal("no keepalive was cut: the test did not exercise its case")
		}
		dp.Emulate(nil)
		if _, err := dp.TrainSyncRound(x, y, mbs, opt); err != nil {
			t.Fatalf("the round after the cut keepalive: %v", err)
		}
		if got := cd.perLink(1); got[0] != 2 {
			t.Fatalf("the link with a keepalive cut mid-frame was dialed %d times, want 2 (not reused)", got[0])
		}
		dp.Close()
	})

	t.Run("stall", func(t *testing.T) {
		// A write that vanishes in a reused round is caught by the recv
		// deadline within 2×RecvTimeout, even after the link idled past its
		// armed deadline between rounds.
		const timeout = 100 * time.Millisecond
		var stall atomic.Bool
		pipes := PipeLinks()
		cd := countDials(func(i int) (net.Conn, net.Conn, error) {
			up, down, err := pipes(i)
			return &stallConn{Conn: up, stall: &stall}, down, err
		})
		ls := newLockstep(t, cd.dial)
		ls.dp.SetLinkOptions(LinkOptions{RecvTimeout: timeout})
		ls.round(0)
		time.Sleep(5 * timeout / 2)
		ls.round(1)
		stall.Store(true)
		x, y := makeData(rand.New(rand.NewSource(2)), 26, 10, 4)
		start := time.Now()
		if _, err := ls.dp.TrainSyncRound(x, y, 4, ls.optD); !errors.As(err, new(*RoundError)) {
			t.Fatalf("want the stalled round to abort, got %v", err)
		}
		if el := time.Since(start); el > 3*timeout {
			t.Fatalf("a stall in a reused round took %v to catch, RecvTimeout %v", el, timeout)
		}
		if got := cd.perLink(links); fmt.Sprint(got) != "[1 1 1]" {
			t.Fatalf("the stalled round ran on links dialed %v times, want reused", got)
		}
		// Nothing failed to write in the stalled round; the abort alone
		// must send the next round to fresh links.
		stall.Store(false)
		ls.round(2)
		ls.done()
		if got := cd.perLink(links); fmt.Sprint(got) != "[2 2 2]" {
			t.Fatalf("the round after the stall dialed the links %v times in all, want twice each", got)
		}
		ls.dp.Close()
	})

	t.Run("close", func(t *testing.T) {
		cd := countDials(PipeLinks())
		ls := newLockstep(t, cd.dial)
		ls.round(0)
		ls.round(1)
		ls.dp.Close()
		if open := cd.open(); len(open) > 0 {
			t.Fatalf("Close left connections %v open", open)
		}
		ls.dp.Close() // harmless
		ls.round(2)
		ls.done()
		if got := cd.perLink(links); fmt.Sprint(got) != "[2 2 2]" {
			t.Fatalf("a round after Close dialed the links %v times in all, want twice each", got)
		}
		ls.dp.Close()
	})
}
