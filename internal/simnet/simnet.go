// Package simnet emulates constrained network links on top of real
// net.Conn connections: writes are paced to a configured bandwidth and
// charged a per-message latency, so an in-process pipeline experiences the
// 100 Mbps wireless links of the paper's testbed (Table 1) with real
// serialization and real blocking behaviour.
package simnet

import (
	"bytes"
	"net"
	"sync"
	"time"
)

// Link wraps a net.Conn with a token-bucket style pacing of writes and a
// send buffer: what a write has put on the link waits there until the peer
// reads it, as in a socket's buffer, so the sender's next write starts when
// the link is free, not when the peer is.
type Link struct {
	net.Conn
	// Bandwidth is the emulated link speed in bytes per second.
	Bandwidth float64
	// Latency is added once per Write (propagation + framing delay).
	Latency time.Duration

	// nextFree is when the link finishes transmitting everything written
	// so far; writes later than that start fresh.
	nextFree time.Time

	// The send buffer: buf holds transmitted writes the peer has not read
	// yet, which the deliverer hands to the connection in order; it stops
	// at the first failure or at Close, sets err and closes gone. 64 writes
	// are more than a pipeline link carries in a round in any test or
	// example; a full buffer blocks the writer, as a full socket does.
	buf       chan []byte
	start     sync.Once
	err       error
	gone      chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

// Throttle wraps conn so writes are paced at bandwidth bytes/s plus a fixed
// per-write latency. Reads are untouched (the sender paces the link).
func Throttle(conn net.Conn, bandwidth float64, latency time.Duration) *Link {
	if bandwidth <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	return &Link{Conn: conn, Bandwidth: bandwidth, Latency: latency,
		buf: make(chan []byte, 64), gone: make(chan struct{}), closed: make(chan struct{})}
}

// Write transmits b after sleeping for its serialization time on the
// emulated link, modelling a FIFO queue: back-to-back writes accumulate
// delay just like real packets behind each other. Transmitted, b waits in
// the send buffer for the peer to read it: a failure to hand an earlier
// write over comes back from a later one, and a write after Close fails.
func (l *Link) Write(b []byte) (int, error) {
	now := time.Now()
	start := now
	if l.nextFree.After(now) {
		start = l.nextFree
	}
	txTime := time.Duration(float64(len(b)) / l.Bandwidth * float64(time.Second))
	done := start.Add(txTime + l.Latency)
	l.nextFree = done
	if wait := done.Sub(now); wait > 0 {
		time.Sleep(wait)
	}
	l.start.Do(func() { go l.deliver() })
	select {
	case <-l.closed:
		return 0, net.ErrClosed
	default:
	}
	select {
	case l.buf <- bytes.Clone(b):
		return len(b), nil
	case <-l.gone:
		return 0, l.err
	}
}

// deliver hands the send buffer's writes to the wrapped connection in
// order, each once the peer reads it.
func (l *Link) deliver() {
	defer close(l.gone)
	for {
		select {
		case b := <-l.buf:
			if _, l.err = l.Conn.Write(b); l.err != nil {
				return
			}
		case <-l.closed:
			l.err = net.ErrClosed
			return
		}
	}
}

// SetWriteDeadline does nothing: a write waits for the link only, never
// for the peer, so there is nothing for a deadline to cut short.
func (l *Link) SetWriteDeadline(time.Time) error { return nil }

// Close closes the wrapped connection and returns once the deliverer has
// stopped; what the send buffer still holds is dropped.
func (l *Link) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	err := l.Conn.Close()
	l.start.Do(func() { go l.deliver() })
	<-l.gone
	return err
}
