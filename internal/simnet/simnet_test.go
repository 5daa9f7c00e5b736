package simnet

import (
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
