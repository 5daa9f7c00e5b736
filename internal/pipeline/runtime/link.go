package runtime

// The hardened link layer of the distributed pipeline. A link is one duplex
// neighbour connection carrying tensors as wire frames (internal/flnet/wire):
// an activation or gradient is one KindTensor frame — A its micro-batch, B
// its rows, its values the raw payload, no shape — and an idle keepalive
// (heartbeat) one KindHeartbeat header with no body.
//
// Lifetime: a link and its connection outlive the round. The DistPipeline
// that dialed it holds it between rounds and starts it again for the next
// (start); the writer goroutine, the running heartbeat ticker and the frame
// buffer belong to one round only (close ends it), so a held link owns no
// goroutine, no running timer and no buffer — only its connection, its armed
// deadlines and a header-sized scratch. The pipeline closes the connection,
// and dials afresh next round, after an aborted round, after a write error
// on any link (its peer may hold half a frame) and on Close. A connection
// that dies while held fails the next round's first read or write like any
// link fault (see dist.go).
//
// Send side: the writer goroutine assembles each frame in one buffer,
// borrowed from frameBufs for the round, and hands it to the connection in
// exactly one Write, heartbeats included, so a fault injector that acts per
// Write (simnet.Chaos) swallows or truncates whole frames. Once a tensor is
// framed the link is done with it: one that was given to the link (give)
// goes back to the tensor pool there and then, and either way the frame is
// counted as serialized, which is what lets the owner of a tensor that was
// only lent (send) return it later (see the sent-before-released check in
// dist.go).
//
// Receive side: recv checks a frame's header fail-closed against the tensor
// the caller expects — wire.ParseHeader, then kind, rows and payload length —
// before it allocates or reads anything more, reads the payload straight
// into a pooled tensor of that shape (tensor.GetBufUninit, wire.ReadRaw),
// then scans it for non-finite values: a hostile or corrupted peer can
// neither poison training state, nor crash a stage with a tensor of the
// wrong shape, nor allocate unboundedly. The tensor belongs to the caller,
// who hands it back with tensor.PutBuf once nothing references it (a stage
// gives it to the micro-batch's record, see dist.go).
//
// The links get the hardening of the server-side flnet transport:
//
//   - per-frame send/recv deadlines turn silent stalls into errors the
//     round-abort machinery can act on;
//   - idle heartbeats let a receiver distinguish "peer is computing" from
//     "link is dead" without inflating the per-frame deadline, with a total
//     budget so a black-holed frame is still detected;
//   - link establishment retries transient dial failures under flnet's
//     exponential-backoff-with-jitter policy, so a chaos partition window
//     delays a round instead of failing it.
//
// All hardening is opt-in through LinkOptions; the zero value behaves like
// the pre-hardening link (no deadlines, no heartbeats, validation always on).

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ecofl/internal/flnet"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
	"ecofl/internal/simnet"
	"ecofl/internal/tensor"
)

var (
	linkHeartbeatsTotal = metrics.GetCounter("ecofl_pipeline_link_heartbeats_total",
		"idle keepalive frames sent on pipeline links")
	linkRejectedTotal = metrics.GetCounter("ecofl_pipeline_link_frames_rejected_total",
		"received tensor frames rejected by validation (hostile or corrupt)")
	linkDialRetriesTotal = metrics.GetCounter("ecofl_pipeline_link_dial_retries_total",
		"link dial attempts retried after a transient failure")
	linkFramesSent = metrics.GetCounter("ecofl_pipeline_link_frames_total",
		"tensor frames moved over pipeline links (heartbeats excluded)", "dir", "sent")
	linkFramesRecv = metrics.GetCounter("ecofl_pipeline_link_frames_total",
		"tensor frames moved over pipeline links (heartbeats excluded)", "dir", "recv")
	linkBytesSent = metrics.GetCounter("ecofl_pipeline_link_bytes_total",
		"bytes of tensor frames moved over pipeline links, headers included", "dir", "sent")
	linkBytesRecv = metrics.GetCounter("ecofl_pipeline_link_bytes_total",
		"bytes of tensor frames moved over pipeline links, headers included", "dir", "recv")
)

// frameBufs lends each link's writer its frame buffer for one round. A held
// link keeps none, and the GC trims the pool once training stops.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// heartbeatFrame is the one keepalive frame every link writes.
var heartbeatFrame = func() []byte {
	b := make([]byte, wire.HeaderSize)
	wire.PutHeader(b, &wire.Header{Kind: wire.KindHeartbeat})
	return b
}()

// The dial-retry backoff.
const (
	dialBackoffBase = 10 * time.Millisecond
	dialBackoffMax  = 500 * time.Millisecond
)

// LinkOptions configures the fault tolerance of pipeline links. The zero
// value disables deadlines, heartbeats and dial retries (the pre-hardening
// behaviour); frame validation is always on.
type LinkOptions struct {
	// SendTimeout is the per-frame write deadline. 0 disables it.
	SendTimeout time.Duration
	// RecvTimeout is the deadline for one frame (data or heartbeat) to
	// arrive. With heartbeats flowing it only needs to cover the heartbeat
	// interval plus jitter, not the peer's compute time. 0 disables it.
	RecvTimeout time.Duration
	// RecvBudget caps the total wait for one *data* frame across any number
	// of heartbeats, so a black-holed tensor is detected even while the link
	// stays chatty. 0 means 8×RecvTimeout (no cap when RecvTimeout is 0).
	RecvBudget time.Duration
	// Heartbeat is the idle keepalive interval; 0 disables heartbeats. Must
	// be comfortably below RecvTimeout to keep a healthy link quiet-proof.
	Heartbeat time.Duration
	// DialRetries is how many times a failed link dial is retried under the
	// flnet backoff policy before the round gives up. 0 disables retries.
	DialRetries int
	// JitterSeed seeds the backoff jitter stream; 0 derives one.
	JitterSeed int64
}

func (o LinkOptions) recvBudget() time.Duration {
	if o.RecvBudget > 0 {
		return o.RecvBudget
	}
	if o.RecvTimeout > 0 {
		return 8 * o.RecvTimeout
	}
	return 0
}

// encodeFrame frames t for micro-batch micro in buf's storage, grown as
// needed. It encodes what it is given; validation is the receiver's job.
func encodeFrame(buf []byte, micro int, t *tensor.Tensor) []byte {
	buf = slices.Grow(buf[:0], wire.HeaderSize+8*len(t.Data))[:wire.HeaderSize]
	wire.PutHeader(buf, &wire.Header{Kind: wire.KindTensor, Codec: wire.CodecRaw,
		A: int32(micro), B: int32(t.Rows()), PayloadLen: uint32(8 * len(t.Data))})
	return wire.AppendRaw(buf, t.Data)
}

// outFrame is one queued send. An owned tensor is the writer's to return to
// the pool once the frame buffer holds its copy; wrote gets how long the
// frame took to write. A frame with no tensor ends the writer's round.
type outFrame struct {
	micro int
	t     *tensor.Tensor
	owned bool
	wrote *time.Duration
}

// link is one duplex neighbour connection. Sends are asynchronous through a
// writer goroutine: a stage can push its next activation while the neighbour
// is still computing (the network buffers), which both matches real links
// and avoids head-to-head write deadlocks on synchronous transports like
// net.Pipe. The same goroutine emits idle heartbeats so the peer's recv
// deadline stays fed while this stage computes.
type link struct {
	conn net.Conn
	opts LinkOptions
	// out is the send queue, done the writer's exit signal; both are reused
	// round after round (a frame with no tensor stops the writer).
	out  chan outFrame
	done chan struct{}
	// tick paces heartbeats; it runs only while a writer does.
	tick *time.Ticker
	// serialized counts the data frames the writer has copied into its frame
	// buffer this round. Frames leave in queue order, so the n-th tensor
	// queued is out of the sender's hands once the count exceeds n.
	serialized atomic.Int64
	// mu guards werr and the close/heartbeat hand-shake: closing is set by
	// close, heartbeating brackets a keepalive Write, and whichever of the
	// two sides moves the write deadline does so under mu (see heartbeat).
	mu           sync.Mutex
	werr         error
	closing      bool
	heartbeating bool
	// Armed connection deadlines, kept with the connection from round to
	// round. Deadlines are set for 2× the configured timeout and only
	// re-armed once they no longer guarantee a full timeout of patience, so
	// back-to-back frames — and back-to-back rounds — skip the timer churn
	// (SetDeadline takes a mutex and resets a timer on every call).
	// wDeadline is touched only by the writer goroutine, rDeadline only by
	// the receiving stage goroutine — no lock needed.
	wDeadline time.Time
	rDeadline time.Time
	// hdr is the receiving goroutine's scratch for the header being read.
	hdr [wire.HeaderSize]byte
}

// newLink wraps c and starts its first round (see start).
func newLink(c net.Conn, depth int, opts LinkOptions) *link {
	l := &link{conn: c, opts: opts, done: make(chan struct{}, 1)}
	l.start(depth)
	return l
}

// start begins a round on the link: depth is the number of frames the round
// sends, so a send never blocks on the queue. It starts the writer and, with
// heartbeats on, the ticker.
func (l *link) start(depth int) {
	if cap(l.out) <= depth { // room for depth frames and the one that stops the writer
		l.out = make(chan outFrame, depth+1)
	}
	l.serialized.Store(0)
	l.mu.Lock()
	l.closing = false
	l.mu.Unlock()
	if hb := l.opts.Heartbeat; hb > 0 {
		if l.tick == nil {
			l.tick = time.NewTicker(hb)
		} else {
			l.tick.Reset(hb)
		}
	}
	go l.writer()
}

// writer drains the send queue onto the connection, interleaving heartbeats
// whenever the queue has been idle for a heartbeat interval, until close
// queues the frame that ends the round. After the first write error it
// keeps draining so senders never block on a dead link, but touches no
// tensor: the round is aborting, and an aborted round returns nothing to
// the pool.
func (l *link) writer() {
	buf := frameBufs.Get().(*[]byte)
	var tickC <-chan time.Time
	if l.tick != nil {
		tickC = l.tick.C
	}
	for {
		select {
		case f := <-l.out:
			if f.t == nil {
				frameBufs.Put(buf)
				l.done <- struct{}{}
				return
			}
			if l.sendErr() != nil {
				continue
			}
			*buf = encodeFrame(*buf, f.micro, f.t)
			if f.owned {
				tensor.PutBuf(f.t)
			}
			l.serialized.Add(1)
			*f.wrote = l.write(*buf)
		case <-tickC:
			l.heartbeat()
		}
	}
}

// sendErr returns the link's first write failure, if any.
func (l *link) sendErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.werr
}

// fail records the link's first write failure and makes it self-announcing:
// closing the connection unparks the peer's blocking read (EOF) even when no
// deadlines are set, so a one-sided write fault can never strand the round.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.werr == nil {
		l.werr = err
	}
	l.mu.Unlock()
	l.conn.Close()
}

// armWriteDeadline gives the next Write a full SendTimeout of patience.
func (l *link) armWriteDeadline() {
	if l.opts.SendTimeout > 0 {
		if now := time.Now(); l.wDeadline.Before(now.Add(l.opts.SendTimeout)) {
			l.wDeadline = now.Add(2 * l.opts.SendTimeout)
			l.conn.SetWriteDeadline(l.wDeadline)
		}
	}
}

// write hands one whole data frame to the connection in a single Write under
// the send deadline, and returns how long the Write took.
func (l *link) write(frame []byte) time.Duration {
	l.armWriteDeadline()
	t0 := time.Now()
	if _, err := l.conn.Write(frame); err != nil {
		l.fail(err)
	} else {
		linkFramesSent.Inc()
		linkBytesSent.Add(int64(len(frame)))
	}
	return time.Since(t0)
}

// heartbeat writes one keepalive, in a single Write like any frame. A peer
// that has finished its round no longer reads, and on a synchronous
// connection a keepalive written then parks — for good when there is no send
// deadline — so close must be able to get it out of the way: while
// heartbeating is set, close expires the write deadline. Both sides move the
// deadline under mu only, so close can never expire a deadline that a data
// frame will be written under: either close sees heartbeating and this
// function restores the deadline once its Write is back, or close comes
// later and leaves the deadline alone. A keepalive interrupted before its
// first byte left is skipped, and the queue keeps draining; one cut short
// mid-frame has broken the framing and fails the link like any write error.
func (l *link) heartbeat() {
	l.mu.Lock()
	if l.closing || l.werr != nil {
		l.mu.Unlock()
		return
	}
	l.heartbeating = true
	l.armWriteDeadline()
	l.mu.Unlock()

	n, err := l.conn.Write(heartbeatFrame)

	l.mu.Lock()
	l.heartbeating = false
	skipped := false
	if l.closing {
		l.wDeadline = time.Time{}
		l.conn.SetWriteDeadline(l.wDeadline)
		skipped = err != nil && n == 0
	}
	l.mu.Unlock()
	switch {
	case skipped:
	case err != nil:
		l.fail(err)
	default:
		linkHeartbeatsTotal.Inc()
	}
}

// send queues t for micro-batch micro, wrote to get how long it took to
// write once the round is closed. The tensor stays the caller's, who must
// keep it intact until the writer has serialized it (sent reports that).
func (l *link) send(micro int, t *tensor.Tensor, wrote *time.Duration) error {
	return l.enqueue(outFrame{micro: micro, t: t, wrote: wrote})
}

// give is send with the tensor handed over: the writer returns it to the
// pool once it is framed, and the caller must not touch it again.
func (l *link) give(micro int, t *tensor.Tensor, wrote *time.Duration) error {
	return l.enqueue(outFrame{micro: micro, t: t, owned: true, wrote: wrote})
}

func (l *link) enqueue(f outFrame) error {
	if err := l.sendErr(); err != nil {
		return err
	}
	l.out <- f
	return nil
}

// sent reports whether the writer has serialized the n-th data frame queued
// on this link (counting from 0): the frame buffer holds its bytes, and the
// tensor it was made from is no longer read.
func (l *link) sent(n int) bool { return l.serialized.Load() > int64(n) }

// recv blocks for the next data frame, a tensor shaped shape, skipping
// heartbeats and enforcing the per-frame deadline and the overall data-frame
// budget. The caller owns the returned tensor.
func (l *link) recv(shape []int) (int, *tensor.Tensor, error) {
	var budgetEnd time.Time
	if b := l.opts.recvBudget(); b > 0 {
		budgetEnd = time.Now().Add(b)
	}
	for {
		if l.opts.RecvTimeout > 0 {
			now := time.Now()
			dl := now.Add(2 * l.opts.RecvTimeout)
			capped := false
			if !budgetEnd.IsZero() && budgetEnd.Before(dl) {
				dl = budgetEnd
				capped = true
			}
			// Re-arm only when the armed deadline no longer guarantees a
			// full RecvTimeout of patience (or the budget forces an earlier
			// one). Stalls are still detected within 2×RecvTimeout.
			if capped || l.rDeadline.Before(now.Add(l.opts.RecvTimeout)) {
				l.rDeadline = dl
				l.conn.SetReadDeadline(dl)
			}
		}
		micro, t, err := l.readFrame(shape)
		if err != nil {
			if errors.Is(err, wire.ErrFrame) {
				linkRejectedTotal.Inc()
			}
			return 0, nil, err
		}
		if t == nil {
			if !budgetEnd.IsZero() && !time.Now().Before(budgetEnd) {
				return 0, nil, fmt.Errorf("runtime: no data frame within %v (heartbeats only)", l.opts.recvBudget())
			}
			continue // keepalive: the peer is alive but still computing
		}
		return micro, t, nil
	}
}

// readFrame reads one frame; a heartbeat comes back as a nil tensor. It
// rejects as wire.ErrFrame what a correct peer can never send: a header
// wire.ParseHeader refuses, another kind, rows or payload length than shape
// calls for — all before the payload is read — and NaN/Inf values that would
// silently corrupt every parameter they touch.
func (l *link) readFrame(shape []int) (int, *tensor.Tensor, error) {
	if _, err := io.ReadFull(l.conn, l.hdr[:]); err != nil {
		return 0, nil, err
	}
	h, err := wire.ParseHeader(l.hdr[:], wire.Limits{})
	switch {
	case err != nil:
		return 0, nil, err
	case h.Kind == wire.KindHeartbeat:
		return 0, nil, nil
	case h.Kind != wire.KindTensor:
		return 0, nil, fmt.Errorf("%w: kind %d on a pipeline link", wire.ErrFrame, h.Kind)
	}
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	if int(h.B) != shape[0] || int(h.PayloadLen) != 8*elems {
		return 0, nil, fmt.Errorf("%w: %d rows in %d bytes, expected a %v tensor", wire.ErrFrame, h.B, h.PayloadLen, shape)
	}
	t := tensor.GetBufUninit(shape...)
	if err := wire.ReadRaw(l.conn, t.Data); err != nil {
		tensor.PutBuf(t)
		return 0, nil, err
	}
	for i, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			tensor.PutBuf(t)
			return 0, nil, fmt.Errorf("%w: non-finite value at element %d", wire.ErrFrame, i)
		}
	}
	linkFramesRecv.Inc()
	linkBytesRecv.Add(int64(wire.HeaderSize) + int64(h.PayloadLen))
	return int(h.A), t, nil
}

// close ends the link's round: queued data frames are still written, a
// keepalive in flight is interrupted (see heartbeat), since nothing
// guarantees the peer will ever read it, and the writer, the ticker and the
// frame buffer stop or go back to the pool. The connection stays open, its
// deadlines armed: the pipeline holding the link either starts it again next
// round or closes the connection (see dist.go). Call it once the round's
// stages are done with the link.
func (l *link) close() {
	l.mu.Lock()
	l.closing = true
	if l.heartbeating {
		l.conn.SetWriteDeadline(time.Unix(1, 0))
	}
	l.mu.Unlock()
	l.out <- outFrame{}
	<-l.done
	if l.tick != nil {
		l.tick.Stop()
		select { // a tick that fired before Stop must not open the next round
		case <-l.tick.C:
		default:
		}
	}
}

// Dialer produces the S−1 duplex connection pairs of a pipeline: for link i
// it returns the upstream endpoint (held by stage i) and the downstream
// endpoint (held by stage i+1).
type Dialer func(i int) (up, down net.Conn, err error)

// PipeLinks returns a Dialer backed by in-process net.Pipe connections.
func PipeLinks() Dialer {
	return func(int) (net.Conn, net.Conn, error) {
		a, b := net.Pipe()
		return a, b, nil
	}
}

// ThrottledLinks wraps another Dialer so every link is paced to the given
// bandwidth (bytes/s) with a per-message latency — the in-process stand-in
// for the paper's 100 Mbps in-home wireless links (device.Bandwidth100Mbps).
func ThrottledLinks(inner Dialer, bandwidth float64, latency time.Duration) Dialer {
	return func(i int) (net.Conn, net.Conn, error) {
		up, down, err := inner(i)
		if err != nil {
			return nil, nil, err
		}
		return simnet.Throttle(up, bandwidth, latency), simnet.Throttle(down, bandwidth, latency), nil
	}
}

// TCPLinks returns a Dialer backed by real TCP loopback connections.
func TCPLinks() Dialer {
	return func(int) (net.Conn, net.Conn, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		defer ln.Close()
		type res struct {
			c   net.Conn
			err error
		}
		ch := make(chan res, 1)
		go func() {
			c, err := ln.Accept()
			ch <- res{c, err}
		}()
		up, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		r := <-ch
		if r.err != nil {
			up.Close()
			return nil, nil, r.err
		}
		return up, r.c, nil
	}
}

// ChaosLinks wraps a Dialer so link i's connections pass through the shared
// fault injector chaos(i) — the same seeded simnet.Chaos across every
// re-dial of that link, so partitions outlast reconnects and the fault
// schedule stays a single deterministic stream. A nil chaos(i) leaves link i
// clean. Both endpoints are wrapped: activations and gradients share the
// link's weather, like the duplex wireless links they emulate.
func ChaosLinks(inner Dialer, chaos func(i int) *simnet.Chaos) Dialer {
	return func(i int) (net.Conn, net.Conn, error) {
		c := chaos(i)
		if c != nil {
			if err := c.DialFault(); err != nil {
				return nil, nil, err
			}
		}
		up, down, err := inner(i)
		if err != nil {
			return nil, nil, err
		}
		if c != nil {
			return c.Wrap(up), c.Wrap(down), nil
		}
		return up, down, nil
	}
}

// dialLink establishes one link, retrying transient failures (a chaos
// partition window, a refused TCP dial) under the flnet backoff policy.
func dialLink(dial Dialer, i int, opts LinkOptions, rng *rand.Rand) (net.Conn, net.Conn, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		up, down, err := dial(i)
		if err == nil {
			return up, down, nil
		}
		lastErr = err
		if attempt >= opts.DialRetries {
			return nil, nil, fmt.Errorf("runtime: link %d dial failed after %d attempts: %w", i, attempt+1, lastErr)
		}
		linkDialRetriesTotal.Inc()
		time.Sleep(flnet.BackoffDelay(attempt+1, dialBackoffBase, dialBackoffMax, rng))
	}
}
