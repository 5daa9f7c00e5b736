package flnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

func benchServer(b *testing.B, n int) (*Server, *Client) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s := NewServer(ln, make([]float64, n), 0.5)
	b.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return s, c
}

// BenchmarkPushRaw measures full-precision push round-trips for a
// 100k-parameter model over TCP loopback.
func BenchmarkPushRaw(b *testing.B) {
	const n = 100_000
	_, c := benchServer(b, n)
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	v := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		_, v, err = c.Push(w, 10, v)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(n * 8)
}

// BenchmarkPushQuantized measures the int8-quantized uplink: ~8× fewer
// payload bytes per push.
func BenchmarkPushQuantized(b *testing.B) {
	const n = 100_000
	_, c := benchServer(b, n)
	rng := rand.New(rand.NewSource(2))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	v := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		_, v, err = c.PushQuantized(w, 10, v)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(n) // one byte per weight on the wire
}

// BenchmarkServerIngest compares the codecs end to end on the server's
// ingest path for a 100k-weight model: raw, quantized and top-k sparse
// payloads, plus concurrent multi-client runs contending for the model lock
// at fixed pusher counts. Each sub-benchmark reports pushes/s and
// bytes/round — the server-side uplink bytes actually read per push, the
// number the sparse codec exists to shrink.
func BenchmarkServerIngest(b *testing.B) {
	const n = 100_000
	const topK = 1000
	rng := rand.New(rand.NewSource(3))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	dense := func(c *Client, v int) (int, error) {
		_, nv, err := c.Push(w, 10, v)
		return nv, err
	}
	cases := []struct {
		name string
		push func(c *Client, v int) (int, error)
	}{
		{"binary-raw", dense},
		{"binary-quant", func(c *Client, v int) (int, error) {
			_, nv, err := c.PushQuantized(w, 10, v)
			return nv, err
		}},
		{"binary-sparse-1k", func(c *Client, v int) (int, error) {
			// Every push re-selects the top-k of a fully dense delta (the
			// acked model moves each round), so this measures selection +
			// encode + ingest, not an artificially sparse input.
			_, nv, err := c.PushDelta(w, 10, v, topK)
			return nv, err
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			s, err := NewServerOpts(ln, make([]float64, n), ServerOptions{Alpha: 0.5})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			c, err := Dial(s.Addr(), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			// Bootstrap: seed the sparse reference (a dense fallback push)
			// outside the timed region so every measured push is sparse.
			v, err := tc.push(c, 0)
			if err != nil {
				b.Fatal(err)
			}
			bytesBefore := srvBytesIn.Value()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v, err = tc.push(c, v); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pushes/s")
			b.ReportMetric(float64(srvBytesIn.Value()-bytesBefore)/float64(b.N), "bytes/round")
		})
	}

	// Contention on the model lock only shows up under concurrency. The
	// pusher count is explicit, not GOMAXPROCS, so a row means the same
	// thing on any box: b.N raw pushes split over that many clients, each on
	// its own connection and goroutine.
	b.Run("binary-raw-multiclient", func(b *testing.B) {
		for _, pushers := range []int{2, 8, 16} {
			b.Run(fmt.Sprintf("pushers=%d", pushers), func(b *testing.B) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				s, err := NewServerOpts(ln, make([]float64, n), ServerOptions{Alpha: 0.5})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { s.Close() })
				clients := make([]*Client, pushers)
				for id := range clients {
					c, err := Dial(s.Addr(), id)
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { c.Close() })
					clients[id] = c
				}
				bytesBefore := srvBytesIn.Value()
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				b.ReportAllocs()
				for _, c := range clients {
					wg.Add(1)
					go func(c *Client) {
						defer wg.Done()
						v := 0
						for next.Add(1) <= int64(b.N) {
							var err error
							if _, v, err = c.Push(w, 10, v); err != nil {
								b.Error(err)
								return
							}
						}
					}(c)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pushes/s")
				b.ReportMetric(float64(srvBytesIn.Value()-bytesBefore)/float64(b.N), "bytes/round")
			})
		}
	})
}
