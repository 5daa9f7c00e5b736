package runtime

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/leakcheck"
	"ecofl/internal/tensor"
)

// writeLog records the length of every Write a link makes that the
// connection accepts. (A Write it refuses whole delivered nothing: close
// interrupts a keepalive in flight that way. One cut short mid-frame is
// logged at its full length and shows as a mismatch.)
type writeLog struct {
	net.Conn
	mu   sync.Mutex
	lens []int
}

func (c *writeLog) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if n > 0 || err == nil {
		c.mu.Lock()
		c.lens = append(c.lens, len(b))
		c.mu.Unlock()
	}
	return n, err
}

// TestOneWritePerFrame pins the contract simnet.Chaos relies on: every
// frame, heartbeats included, reaches the connection through exactly one
// Write, so a per-Write fault hits one whole frame. The peer re-parses the
// byte stream into frames; the Writes must line up with them one to one.
func TestOneWritePerFrame(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	wl := &writeLog{Conn: a}
	l := newLink(wl, 4, LinkOptions{Heartbeat: 2 * time.Millisecond})

	var frameLens []int
	heartbeats := 0
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		r := bufio.NewReader(b)
		var hdr [wire.HeaderSize]byte
		for {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return
			}
			h, err := wire.ParseHeader(hdr[:], wire.Limits{})
			if err != nil {
				t.Errorf("the link wrote a frame wire refuses: %v", err)
				return
			}
			if h.Kind == wire.KindHeartbeat {
				heartbeats++
			}
			if _, err := r.Discard(int(h.PayloadLen + h.TrailerLen)); err != nil {
				return
			}
			frameLens = append(frameLens, wire.HeaderSize+int(h.PayloadLen+h.TrailerLen))
		}
	}()

	rng := rand.New(rand.NewSource(1))
	shapes := [][]int{{4, 6}, {16, 96}, {2, 3, 5, 7}, {9000}} // the last one is above 64 KiB
	for i, sh := range shapes {
		if err := l.send(i, tensor.Randn(rng, 1, sh...), new(time.Duration)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // idle long enough for heartbeats in between
	}
	l.close()
	a.Close()
	<-peerDone

	if len(frameLens)-heartbeats != len(shapes) || heartbeats == 0 {
		t.Fatalf("peer parsed %d data frames and %d heartbeats, want %d and some", len(frameLens)-heartbeats, heartbeats, len(shapes))
	}
	if fmt.Sprint(wl.lens) != fmt.Sprint(frameLens) {
		t.Fatalf("writes %v do not line up with frames %v", wl.lens, frameLens)
	}
}

// TestCloseUnparksHeartbeatWrite: a stage that has finished its round stops
// reading, so on a synchronous connection with no send deadline a keepalive
// written after that parks in Write for good — and close, which waits for
// the writer, used to wait with it. close must interrupt the keepalive.
func TestCloseUnparksHeartbeatWrite(t *testing.T) {
	baseline := leakcheck.Baseline()
	a, b := net.Pipe() // b never reads
	l := newLink(a, 1, LinkOptions{Heartbeat: time.Millisecond})
	parked := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.heartbeating
	}
	for deadline := time.Now().Add(5 * time.Second); !parked(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer never started a keepalive")
		}
	}
	closed := make(chan struct{})
	go func() {
		l.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Error("close is still waiting behind a parked keepalive write after 1s")
		a.Close() // unpark it the hard way so the test can end
		<-closed
	}
	a.Close()
	b.Close()
	leakcheck.Check(t, baseline)
}

// TestFrameCodecParity checks the link's frame against the layout spelled
// out byte by byte — a wire KindTensor header, micro-batch in A and rows in
// B, then the raw payload — and the decoder against the encoder, bit for
// bit. wire's own tests cover the raw codec's portable decoding path.
func TestFrameCodecParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range [][]int{{3}, {16, 96}, {2, 3, 4, 5}, {3, 4000}} { // the last one is above 64 KiB
		src := tensor.Randn(rng, 1, shape...)
		src.Data[0] = math.Float64frombits(0x8000000000000001) // a denormal: bits must survive
		raw := encodeFrame(nil, 7, src)

		want := append([]byte("EFLB"), wire.Version, wire.KindTensor, wire.CodecRaw, 0)
		want = binary.LittleEndian.AppendUint32(want, 7)
		want = binary.LittleEndian.AppendUint32(want, uint32(shape[0]))
		want = binary.LittleEndian.AppendUint32(want, 0)
		want = binary.LittleEndian.AppendUint64(want, 0)
		want = binary.LittleEndian.AppendUint32(want, uint32(8*len(src.Data)))
		want = binary.LittleEndian.AppendUint32(want, 0)
		for _, v := range src.Data {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("shape %v: encoded frame departs from the documented layout", shape)
		}

		micro, got, err := byteLink(raw).recv(shape)
		if err != nil || micro != 7 {
			t.Fatalf("shape %v: micro=%d err=%v", shape, micro, err)
		}
		if !slices.Equal(got.Shape, shape) || len(got.Data) != len(src.Data) {
			t.Fatalf("shape %v: decoded shape %v, %d elements", shape, got.Shape, len(got.Data))
		}
		for i := range src.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(src.Data[i]) {
				t.Fatalf("shape %v: element %d differs", shape, i)
			}
		}
	}
}

// TestHostileLengthTruncated severs the stream 1 MiB into a frame whose
// header (valid under the default limits) claims 128 MiB: recv must refuse
// it from the header, since it is not the tensor the stage waits for, and
// allocate nothing in proportion to the claim. Mirrors
// wire.TestHostileLengthTruncated.
func TestHostileLengthTruncated(t *testing.T) {
	const received = 1 << 20
	shape := []int{1 << 10, 12}
	raw := rawFrame(wire.Header{Kind: wire.KindTensor, Codec: wire.CodecRaw, B: int32(shape[0]), PayloadLen: 128 << 20},
		make([]byte, received))
	l := byteLink(raw)
	var err error
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, _, err = l.recv(shape)
	goruntime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("truncated 128 MiB claim: want wire.ErrFrame, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("refusing a 128 MiB claim allocated %d bytes", grew)
	}
}

// TestLinkSteadyStateAllocs pins the per-frame allocation budget of the hot
// path: queueing a 16×96 tensor, framing it, one Write, one header read, one
// payload read into a pooled tensor that the receiver hands back. The budget
// leaves room for net.Pipe's own bookkeeping; the link itself allocates
// nothing once its buffers are warm.
func TestLinkSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	a, b := net.Pipe()
	defer b.Close()
	tx := newLink(a, 1, LinkOptions{})
	defer func() { tx.close(); a.Close() }()
	rx := &link{conn: b}
	src := tensor.Randn(rand.New(rand.NewSource(3)), 1, 16, 96)
	got := testing.AllocsPerRun(200, func() {
		if err := tx.send(0, src, new(time.Duration)); err != nil {
			t.Fatal(err)
		}
		_, r, err := rx.recv(src.Shape)
		if err != nil {
			t.Fatal(err)
		}
		tensor.PutBuf(r)
	})
	if got > 3 {
		t.Errorf("send+recv of one frame allocates %.0f/op, budget 3", got)
	}
}

// scrapeCounter reads one counter off the Prometheus exposition.
func scrapeCounter(t *testing.T, series string) int64 {
	t.Helper()
	var b strings.Builder
	if err := metrics.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v int64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not exposed", series)
	return 0
}

// TestLinkTrafficCounters scrapes the per-direction frame and byte counters
// around one round whose traffic is known exactly: 2 stages and 3
// micro-batches make 3 activations (4×10) and 3 gradients (4×10), each 36
// header + 320 payload bytes, and every frame sent is received.
func TestLinkTrafficCounters(t *testing.T) {
	series := func(family, dir string) string {
		return fmt.Sprintf(`ecofl_pipeline_link_%s_total{dir="%s"}`, family, dir)
	}
	names := []string{series("frames", "sent"), series("frames", "recv"), series("bytes", "sent"), series("bytes", "recv")}
	before := make([]int64, len(names))
	for i, n := range names {
		before[i] = scrapeCounter(t, n)
	}
	rng := rand.New(rand.NewSource(4))
	x, labels := makeData(rng, 12, 8, 3)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(8)), "count", 8, []int{10}, 3)
	dp, err := NewDistributed(tr, []int{1}, TCPLinks())
	if err != nil {
		t.Fatal(err)
	}
	// Heartbeats flow throughout and must not be counted.
	dp.SetLinkOptions(LinkOptions{Heartbeat: time.Millisecond, SendTimeout: time.Second, RecvTimeout: time.Second})
	if _, err := dp.TrainSyncRound(x, labels, 4, &nn.SGD{LR: 0.1}); err != nil {
		t.Fatal(err)
	}
	want := []int64{6, 6, 6 * (36 + 320), 6 * (36 + 320)}
	for i, n := range names {
		if got := scrapeCounter(t, n) - before[i]; got != want[i] {
			t.Errorf("%s moved by %d, want %d", n, got, want[i])
		}
	}
}

// viewTrainable builds a model whose cut points leave view layers at the
// edges of stages: a stage that is nothing but a flat (its output is a view
// of its input, its dx of its dy), a stage that starts and ends with a flat
// around real compute, and a second flat-only stage.
func viewTrainable(seed int64) *model.Trainable {
	rng := rand.New(rand.NewSource(seed))
	return handTrainable("views", []int{10},
		[]nn.Layer{nn.NewDense(rng, 10, 14), nn.ReLU{}},
		[]nn.Layer{flat{}},
		[]nn.Layer{flat{}, nn.NewDense(rng, 14, 12), nn.ReLU{}, flat{}},
		[]nn.Layer{flat{}},
		[]nn.Layer{nn.NewDense(rng, 12, 4)})
}

// TestViewLayerStagesBitIdentical is the alias guard's pin. Tensors a stage
// receives are recycled after the Backward that consumed them; a view layer
// at the edge of a stage can hand that very storage on to a link, where it
// may still sit in the send queue. With the guard the pipeline stays
// bit-identical to the sequential reference; without it a recycled buffer is
// overwritten under the writer (a data race, and diverging weights).
func TestViewLayerStagesBitIdentical(t *testing.T) {
	const seed = 99
	cuts := []int{1, 2, 3, 4}
	ref := newSequential(viewTrainable(seed))
	dp, err := NewDistributed(viewTrainable(seed), cuts, TCPLinks())
	if err != nil {
		t.Fatal(err)
	}
	x, labels := makeData(rand.New(rand.NewSource(6)), 24, 10, 4)
	optRef, optDist := &nn.SGD{LR: 0.05}, &nn.SGD{LR: 0.05}
	for round := 0; round < 24; round++ {
		want, err := ref.TrainSyncRound(x, labels, 4, optRef)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dp.TrainSyncRound(x, labels, 4, optDist)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: loss %v over links, %v sequential", round, got, want)
		}
	}
	wr, wd := ref.Network().FlatWeights(), dp.Network().FlatWeights()
	for i := range wr {
		if wr[i] != wd[i] {
			t.Fatalf("weight %d diverged: %v over links, %v sequential", i, wd[i], wr[i])
		}
	}
}
