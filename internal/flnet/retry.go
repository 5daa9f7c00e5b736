package flnet

// Client-side fault tolerance: per-round-trip deadlines, automatic
// reconnect with exponential backoff + jitter, and bounded retries. Framing
// has no resync point, so after any transport failure (deadline, reset,
// truncated reply) the old connection is unusable and every retry starts
// with a fresh dial and a fresh hello. Application-level rejections
// (reply.Err) are deterministic server answers and are never retried.

import (
	"math/rand"
	"net"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/obs/journal"
)

// Dialer opens the transport connection to the server. Tests and emulations
// substitute dialers that wrap the conn (simnet.Throttle for bandwidth
// pacing, simnet.Chaos for fault injection).
type Dialer func(addr string) (net.Conn, error)

// Options configures a Client's fault tolerance.
type Options struct {
	// Timeout is the per-round-trip deadline covering the request write
	// and the reply read. 0 means DefaultTimeout (30s); negative disables
	// deadlines (the pre-hardening blocking behaviour).
	Timeout time.Duration
	// MaxRetries is how many times a failed round trip is retried over a
	// fresh connection before giving up. 0 means 3; negative disables
	// retries.
	MaxRetries int
	// BackoffBase is the first retry's wait; each further retry doubles it
	// up to BackoffMax, multiplied by a uniform jitter in [0.5, 1.5).
	// Zero values mean 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the backoff jitter stream (deterministic tests).
	// 0 derives a per-client seed from the portal id.
	JitterSeed int64
	// Dialer opens connections; nil means plain TCP.
	Dialer Dialer
	// MaxPayload caps the payload bytes of a frame the client will accept
	// or send (0 = the wire package default, 128 MiB).
	MaxPayload int
	// Journal, when non-nil, receives flight-recorder events for every
	// fault-path decision this client takes (retry, reconnect, sparse
	// re-sync) plus an ack event per applied push. The recorder also
	// piggybacks on telemetry snapshots into the server's fleet journal.
	// nil (the default) costs ~nothing: every record call is a nil-check.
	Journal *journal.Recorder
}

func (o Options) withDefaults(id int) Options {
	if o.Timeout == 0 {
		o.Timeout = DefaultTimeout
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 3
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = int64(id) + 1
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return o
}

// DialOptions connects a portal to the server with explicit fault-tolerance
// options.
func DialOptions(addr string, id int, opts Options) (*Client, error) {
	opts = opts.withDefaults(id)
	conn, err := opts.Dialer(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		ID:       id,
		addr:     addr,
		opts:     opts,
		closedCh: make(chan struct{}),
	}
	c.rng = rand.New(rand.NewSource(opts.JitterSeed))
	if err := c.installConn(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// installConn swaps in a fresh connection and performs the hello handshake
// over the byte-counting wrapper. A non-nil error means the connection is
// unusable (a failed hello poisons the stream) and the caller must redial.
func (c *Client) installConn(conn net.Conn) error {
	cc := countingConn{Conn: conn, in: cliBytesIn, out: cliBytesOut}
	c.connMu.Lock()
	c.conn = conn
	c.connMu.Unlock()
	bw, err := newBinClientWire(conn, cc, c.ID, c.opts.Timeout,
		wire.Limits{MaxPayload: c.opts.MaxPayload})
	if err != nil {
		return err
	}
	c.wire = bw
	return nil
}

// reconnectLocked replaces a failed connection with a freshly dialed one.
// Caller holds c.mu.
func (c *Client) reconnectLocked() error {
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.connMu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	conn, err := c.opts.Dialer(c.addr)
	if err != nil {
		return err
	}
	// Close may have raced the dial: never leave a live socket behind on a
	// closed client.
	if c.closed.Load() {
		conn.Close()
		return ErrClosed
	}
	if err := c.installConn(conn); err != nil {
		// The hello was lost or refused; the retry loop backs off and
		// redials, speaking the same protocol.
		conn.Close()
		return err
	}
	c.reconnects.Add(1)
	cliReconnects.Inc()
	c.opts.Journal.Record("net.reconnect", journal.None, c.ID)
	return nil
}

// BackoffDelay is the transport's retry pacing policy, exported so other
// network layers (the pipeline link dialer, the healing executor) back off
// identically: attempt n (1-based) waits base·2^(n−1) capped at max,
// multiplied by a uniform jitter in [0.5, 1.5) drawn from rng.
func BackoffDelay(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	d := base << uint(attempt-1)
	if d > max || d <= 0 {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// backoff sleeps before retry attempt n (1-based) with exponential growth
// and jitter, returning false if the client was closed while waiting.
func (c *Client) backoff(attempt int) bool {
	d := BackoffDelay(attempt, c.opts.BackoffBase, c.opts.BackoffMax, c.rng)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-c.closedCh:
		return false
	}
}
