// Package simnet emulates constrained network links on top of real
// net.Conn connections: writes are paced to a configured bandwidth and
// charged a per-message latency, so an in-process pipeline experiences the
// 100 Mbps wireless links of the paper's testbed (Table 1) with real
// serialization and real blocking behaviour.
package simnet

import (
	"net"
	"time"
)

// Link wraps a net.Conn with a token-bucket style pacing of writes.
type Link struct {
	net.Conn
	// Bandwidth is the emulated link speed in bytes per second.
	Bandwidth float64
	// Latency is added once per Write (propagation + framing delay).
	Latency time.Duration

	// nextFree is when the link finishes transmitting everything written
	// so far; writes later than that start fresh.
	nextFree time.Time
}

// Throttle wraps conn so writes are paced at bandwidth bytes/s plus a fixed
// per-write latency. Reads are untouched (the sender paces the link).
func Throttle(conn net.Conn, bandwidth float64, latency time.Duration) *Link {
	if bandwidth <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	return &Link{Conn: conn, Bandwidth: bandwidth, Latency: latency}
}

// Write transmits b after sleeping for its serialization time on the
// emulated link, modelling a FIFO queue: back-to-back writes accumulate
// delay just like real packets behind each other.
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
	return l.Conn.Write(b)
}
