package flnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
)

// writeLog records the length of every Write on the connections it wraps,
// before the bytes go out, so a peer holding the frame has been logged.
type writeLog struct {
	mu     sync.Mutex
	writes []int
}

func (l *writeLog) wrap(c net.Conn) net.Conn { return &loggedConn{Conn: c, log: l} }

// take returns the Writes logged since the last take.
func (l *writeLog) take() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.writes
	l.writes = nil
	return w
}

type loggedConn struct {
	net.Conn
	log *writeLog
}

func (c *loggedConn) Write(b []byte) (int, error) {
	c.log.mu.Lock()
	c.log.writes = append(c.log.writes, len(b))
	c.log.mu.Unlock()
	return c.Conn.Write(b)
}

// TestFrameWriteCalls pins how each frame the transport sends is split into
// Write calls, requests and replies alike, in every codec: simnet.Chaos
// decides a fault on each Write and counts them (FaultPlan.After), so the
// chaos soaks' fault schedules depend on the split. It is the split a 64 KiB
// bufio.Writer flushed once per frame makes. A frame of at most 64 KiB is
// one Write. A larger one is a 64 KiB Write of the header and the payload's
// head, then the rest of the payload in one Write, then the trailer, if
// any, in a third.
func TestFrameWriteCalls(t *testing.T) {
	// tel is the trailer of a snapshot from an empty registry, {"proc":"p"}.
	const tel = 12
	for _, tc := range []struct {
		n, k int
		// want holds the request's and the reply's Writes for each step.
		want [][2][]int
	}{
		{n: 1000, k: 100, want: [][2][]int{
			{{36}, {36}},           // hello, hello-ack
			{{8036}, {8036}},       // raw push, model reply
			{{1052}, {8036}},       // int8 push
			{{8036}, {8036}},       // delta push with no reference: raw
			{{1244}, {8036}},       // sparse push of 100
			{{36}, {8036}},         // pull
			{{8028}, {81}},         // a push of the wrong size, error reply
			{{8036 + tel}, {8036}}, // raw push with a telemetry trailer
			{{36 + tel}, {36}},     // telemetry flush, empty reply
		}},
		{n: 100_000, k: 1000, want: [][2][]int{
			{{36}, {36}},
			{{65536, 734500}, {65536, 734500}},
			{{65536, 34516}, {65536, 734500}},
			{{65536, 734500}, {65536, 734500}},
			{{12044}, {65536, 734500}},
			{{36}, {65536, 734500}},
			{{65536, 734492}, {85}},
			{{65536, 734500, tel}, {65536, 734500}},
			{{36 + tel}, {36}},
		}},
	} {
		t.Run(fmt.Sprint(tc.n), func(t *testing.T) {
			var cli, srv writeLog
			s := startServerOpts(t, make([]float64, tc.n), ServerOptions{Alpha: 0.5, WrapConn: srv.wrap})
			c, err := DialOptions(s.Addr(), 0, Options{Dialer: func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return cli.wrap(conn), nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			w := make([]float64, tc.n)
			for i := range w {
				w[i] = float64(i%13) / 4
			}
			steps := []func() error{
				func() error { return nil },
				func() error { _, _, err := c.Push(w, 1, 0); return err },
				func() error { _, _, err := c.PushQuantized(w, 1, 0); return err },
				func() error { _, _, err := c.PushDelta(w, 1, 0, tc.k); return err },
				func() error { w[3]++; _, _, err := c.PushDelta(w, 1, 0, tc.k); return err },
				func() error { _, _, err := c.Pull(); return err },
				func() error {
					if _, _, err := c.Push(w[:tc.n-1], 1, 0); err == nil {
						return fmt.Errorf("a push of %d weights to a %d-weight model was accepted", tc.n-1, tc.n)
					}
					return nil
				},
				func() error {
					stop := c.EnableTelemetry(metrics.NewRegistry(), nil, "p", 0)
					t.Cleanup(stop)
					_, _, err := c.Push(w, 1, 0)
					return err
				},
				c.FlushTelemetry,
			}
			for i, step := range steps {
				if err := step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				got := [2][]int{cli.take(), srv.take()}
				if !slices.Equal(got[0], tc.want[i][0]) || !slices.Equal(got[1], tc.want[i][1]) {
					t.Errorf("step %d: request Writes %v, reply Writes %v; want %v, %v", i, got[0], got[1], tc.want[i][0], tc.want[i][1])
				}
			}
		})
	}
}

// TestIdleSessionsHoldNoBuffers pins what a connected, idle session costs:
// its header arrays and its session state — the server's ack and, for a
// sparse client, its reference — and no frame buffer. 64 sessions share a
// 1 000-weight model, a third each in raw, int8 and sparse, and each pushes
// until its codec is warm; two GC cycles later the live heap they add is
// under 48 KiB a session (a 64 KiB read or write buffer per connection end
// would be 256 KiB). That a warm push after two GC cycles still finds its
// buffers listed is TestLargePushAllocBudget's 1 000-weight rows.
func TestIdleSessionsHoldNoBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const sessions, n, perSession = 64, 1000, 48 << 10
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i%13) / 4
	}
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// run connects the sessions; each pushes three times in its codec, so
	// a sparse session's second and third pushes are sparse ones.
	run := func(sessions int) (*Server, []*Client) {
		s := openServer(t, make([]float64, n), ServerOptions{Alpha: 0.5})
		cs := make([]*Client, sessions)
		for i := range cs {
			c, err := DialOptions(s.Addr(), i, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cs[i] = c
			v := 0
			for p := 0; p < 3; p++ {
				w[(i+p)%n]++
				if _, v, err = codecPushes[i%len(codecPushes)].push(c, w, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s, cs
	}
	stop := func(s *Server, cs []*Client) {
		for _, c := range cs {
			c.Close()
		}
		s.Close()
	}
	// A first federation fills the process-wide buffer lists, which then
	// hold what the frames in flight need, whatever the number of sessions.
	s, cs := run(len(codecPushes))
	stop(s, cs)
	before := live()
	s, cs = run(sessions)
	defer stop(s, cs)
	per := (live() - before) / sessions
	t.Logf("an idle session holds %d bytes of live heap", per)
	if per >= perSession {
		t.Errorf("an idle session holds %d bytes of live heap, want under %d", per, perSession)
	}
}

// TestHostileSparseScratchNotListed sends a well-formed sparse push whose k
// is far larger than the model: ParseSparse grows scratch for it, the server
// refuses the push, and the scratch must go to the GC rather than onto the
// process-wide lists, where it would outlive the connection.
func TestHostileSparseScratchNotListed(t *testing.T) {
	const n, k = 1000, 1 << 18
	s := startServer(t, make([]float64, n), 0.5)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, fr := wire.Writer{W: conn}, wire.Reader{R: conn}
	if err := fw.WriteFrame(&wire.Header{Kind: wire.KindHello}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if h, _, _, err := fr.Next(); err != nil || h.Kind != wire.KindHelloAck {
		t.Fatalf("hello: kind %d, %v", h.Kind, err)
	}
	idx, vals := make([]uint32, k), make([]float64, k)
	for i := range idx {
		idx[i], vals[i] = uint32(i), 1
	}
	push := wire.Header{Kind: wire.KindPush, B: 1, Seq: 1}
	if err := fw.WriteSparseFrame(&push, 2*k, idx, vals, nil); err != nil {
		t.Fatal(err)
	}
	h, _, trailer, err := fr.Next()
	if err != nil || h.Kind != wire.KindReply || len(trailer) == 0 {
		t.Fatalf("a %d-weight sparse push to a %d-weight model: kind %d, error %q, %v; want a refusal", 2*k, n, h.Kind, trailer, err)
	}
	// The server hands the push's scratch back before it writes the reply.
	if most := largestListed(idxSpares); most >= k {
		t.Errorf("the index list holds a %d-entry buffer after a refused %d-entry push", most, k)
	}
	if most := largestListed(valSpares); most >= k {
		t.Errorf("the value list holds a %d-entry buffer after a refused %d-entry push", most, k)
	}
}

// TestRefusedOversizedBodyNotListed sends raw pushes longer than the model:
// the raw codec views them, dispatch refuses them, and each frame body must
// go to the GC rather than onto wire's process-wide large list, where eight
// of them would pin up to MaxPayload each. The probe is wire.Borrow: asked
// for more than the model's frame, it hands over a listed buffer that holds
// it, and a fresh one rounded to 64 KiB otherwise.
func TestRefusedOversizedBodyNotListed(t *testing.T) {
	const n, hostile = 10_000, 3*10_000 + 7 // an 80 KB model frame; 8·hostile is no 64 KiB multiple
	s := startServer(t, make([]float64, n), 0.5)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, fr := wire.Writer{W: conn}, wire.Reader{R: conn}
	if err := fw.WriteFrame(&wire.Header{Kind: wire.KindHello}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if h, _, _, err := fr.Next(); err != nil || h.Kind != wire.KindHelloAck {
		t.Fatalf("hello: kind %d, %v", h.Kind, err)
	}
	push := make([]float64, hostile)
	for seq := uint64(1); seq <= 4; seq++ {
		if err := fw.WriteRawFrame(&wire.Header{Kind: wire.KindPush, B: 1, Seq: seq}, push, nil); err != nil {
			t.Fatal(err)
		}
		// The server hands the push's frame back before it writes the reply.
		if h, _, trailer, err := fr.Next(); err != nil || h.Kind != wire.KindReply || len(trailer) == 0 {
			t.Fatalf("a %d-weight raw push to a %d-weight model: kind %d, error %q, %v; want a refusal", hostile, n, h.Kind, trailer, err)
		}
	}
	for range 4 * wire.ListDepth {
		if b := wire.Borrow(8*n + 1); cap(b) == 8*hostile {
			t.Fatalf("the large list holds a refused %d-byte push body; the model's frame is %d bytes", cap(b), 8*n)
		}
	}
}

// largestListed returns the capacity of the largest buffer on l, and leaves
// l as it found it.
func largestListed[T any](l *wire.Spares[T]) int {
	var held [][]T
	most := 0
	for b := l.Get(); b != nil; b = l.Get() {
		most = max(most, cap(b))
		held = append(held, b)
	}
	for _, b := range held {
		l.Put(b)
	}
	return most
}

// slowConn waits before each Write, as a write on a thin link whose socket
// buffer is full blocks, so the frames of sessions pushing at once overlap.
type slowConn struct {
	net.Conn
	wait time.Duration
}

func (c slowConn) Write(b []byte) (int, error) {
	time.Sleep(c.wait)
	return c.Conn.Write(b)
}

// TestPushesInFlight measures what the depth of the buffer lists buys when
// many pushes are in flight at once. Sessions on a 1 000-weight model, a
// third each in raw, int8 and sparse, push concurrently over links that
// wait 1 ms before every Write on either end, so every session holds its
// frame buffers at the same time. A push in flight holds about one small
// buffer and one writer (wire.ListDepth), so with 64 sessions a warm push
// allocates its 8 KB reply and no buffer. With twice wire.ListDepth, the frames
// past the depth allocate their buffers and drop them, at most one 64 KiB
// buffer for each of a push's borrows; the test logs what that costs.
func TestPushesInFlight(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("pushes over slowed links")
	}
	const n, pushes, reply = 1000, 6, 8 * 1000
	slow := func(c net.Conn) net.Conn { return slowConn{Conn: c, wait: time.Millisecond} }
	measure := func(sessions int) (allocs, bytes float64) {
		s := startServerOpts(t, make([]float64, n), ServerOptions{Alpha: 0.5, WrapConn: slow})
		cs := make([]*Client, sessions)
		for i := range cs {
			c, err := DialOptions(s.Addr(), i, Options{Dialer: func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return slow(conn), nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cs[i] = c
		}
		vs := make([]int, sessions)
		round := func() {
			var wg sync.WaitGroup
			errs := make([]error, sessions)
			for i, c := range cs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := make([]float64, n)
					for p := 0; p < pushes && errs[i] == nil; p++ {
						w[(i+p)%n] = float64(p + 1)
						_, vs[i], errs[i] = codecPushes[i%len(codecPushes)].push(c, w, vs[i])
					}
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
		}
		round() // references, connections and lists warm up
		round()
		allocs, bytes = math.Inf(1), math.Inf(1)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			round()
			runtime.ReadMemStats(&after)
			total := float64(sessions * pushes)
			allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/total)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/total)
		}
		return allocs, bytes
	}
	allocs, bytes := measure(64)
	t.Logf("64 sessions in flight: %.2f objects and %.0f bytes a push", allocs, bytes)
	if bytes > reply+16<<10 {
		t.Errorf("with 64 sessions in flight a push allocates %.0f bytes, want its %d-byte reply and no 64 KiB buffer", bytes, reply)
	}
	allocs, bytes = measure(2 * wire.ListDepth)
	t.Logf("%d sessions in flight: %.2f objects and %.0f bytes a push", 2*wire.ListDepth, allocs, bytes)
	if bytes > reply+5*64<<10+16<<10 {
		t.Errorf("with %d sessions in flight a push allocates %.0f bytes, want at most its reply and one 64 KiB buffer for each of its five borrows", 2*wire.ListDepth, bytes)
	}
}
