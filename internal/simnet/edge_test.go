package simnet

import (
	"net"
	"testing"
	"time"
)

// A zero-length write must not sleep for the latency-free serialization of
// zero bytes, must not disturb the pacing clock, and must still hit the
// underlying conn exactly once (no frame writer emits empty writes, but a flushing
// caller may).
func TestZeroLengthWrite(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	l := Throttle(a, 1000, 0) // 1 KB/s: any accidental charge is visible
	go func() {
		buf := make([]byte, 8)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := l.Write(nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("zero-length write: %v", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("zero-length write slept on a slow link")
	}
}

// A latency-only link (huge bandwidth) charges exactly the per-write
// latency, once per write, and back-to-back writes accumulate it FIFO.
func TestLatencyOnlyLink(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	l := Throttle(a, 1e15, 20*time.Millisecond)
	go func() {
		buf := make([]byte, 1<<12)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := l.Write(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 55*time.Millisecond {
		t.Fatalf("3 writes on a 20ms-latency link took %v, want ≥ ~60ms", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("latency-only link charged far too much: %v", elapsed)
	}
}

// Zero-length writes on a latency link still pay the per-message latency
// (the Write models framing/propagation, not payload serialization).
func TestZeroLengthWritePaysLatency(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	l := Throttle(a, 1e15, 30*time.Millisecond)
	go func() {
		buf := make([]byte, 8)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := l.Write(nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("zero-length write skipped the link latency: %v", elapsed)
	}
}
