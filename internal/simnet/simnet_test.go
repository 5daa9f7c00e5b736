package simnet

import (
	"io"
	"net"
	"testing"
	"time"
)

func pipePair() (net.Conn, net.Conn) {
	return net.Pipe()
}

func TestWritePacedToBandwidth(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	// 1 MB/s link: a 100 KB payload should take ≥ 100 ms.
	l := Throttle(a, 1e6, 0)
	payload := make([]byte, 100_000)
	go func() {
		buf := make([]byte, len(payload))
		total := 0
		for total < len(buf) {
			n, err := b.Read(buf[total:])
			if err != nil {
				return
			}
			total += n
		}
	}()
	start := time.Now()
	if _, err := l.Write(payload); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("write finished in %v, want ≥ ~100ms at 1MB/s", elapsed)
	}
}

func TestLatencyCharged(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	l := Throttle(a, 1e12, 30*time.Millisecond) // effectively infinite bandwidth
	go func() {
		buf := make([]byte, 16)
		b.Read(buf)
	}()
	start := time.Now()
	if _, err := l.Write(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("latency not charged: %v", elapsed)
	}
}

func TestBackToBackWritesQueue(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	l := Throttle(a, 1e6, 0)
	go func() {
		buf := make([]byte, 1<<16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := l.Write(make([]byte, 25_000)); err != nil {
			t.Fatal(err)
		}
	}
	// 4 × 25 KB at 1 MB/s = 100 ms serialized.
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("queued writes took %v, want ≥ ~100ms", elapsed)
	}
}

func TestThrottleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive bandwidth must panic")
		}
	}()
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	Throttle(a, 0, 0)
}

// A link buffers what it has transmitted: writes return once paced, with
// nobody reading yet, the peer then reads them in order, and a write after
// Close fails.
func TestWritesWaitInTheSendBuffer(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	l := Throttle(a, 1e9, 0)
	for i := range 3 {
		if _, err := l.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 3)
	if _, err := io.ReadFull(b, got); err != nil || string(got) != "\x00\x01\x02" {
		t.Fatalf("the peer read %q, %v", got, err)
	}
	l.Close()
	if _, err := l.Write([]byte{3}); err == nil {
		t.Fatal("a write after Close succeeded")
	}
}
