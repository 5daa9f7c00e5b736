package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	cases := []Header{
		{Kind: KindHello, A: 42},
		{Kind: KindHelloAck},
		{Kind: KindPull, A: 3, B: 0, C: 7},
		{Kind: KindPush, Codec: CodecRaw, A: 1, B: 100, C: 5, Seq: 99, PayloadLen: 64},
		{Kind: KindPush, Codec: CodecQuant, A: -1, B: -2, C: -3, Seq: 1, PayloadLen: 17, TrailerLen: 9},
		{Kind: KindPush, Codec: CodecSparse, Seq: 1 << 40, PayloadLen: 20},
		{Kind: KindTelemetry, A: 2, TrailerLen: 128},
		{Kind: KindReply, Codec: CodecRaw, A: 12, PayloadLen: 8},
		{Kind: KindReply, A: 12, TrailerLen: 30},
		{Kind: KindTensor, Codec: CodecRaw, A: 3, B: 16, PayloadLen: 16 * 96 * 8},
		{Kind: KindHeartbeat},
	}
	var buf [HeaderSize]byte
	for _, h := range cases {
		PutHeader(buf[:], &h)
		got, err := ParseHeader(buf[:], Limits{})
		if err != nil {
			t.Fatalf("ParseHeader(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip changed header:\n put %+v\n got %+v", h, got)
		}
	}
}

func TestParseHeaderRejects(t *testing.T) {
	mk := func(mut func(b []byte)) []byte {
		var b [HeaderSize]byte
		PutHeader(b[:], &Header{Kind: KindPush, Codec: CodecRaw, PayloadLen: 16})
		mut(b[:])
		return b[:]
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"truncated", mk(func([]byte) {})[:HeaderSize-1]},
		{"bad magic", mk(func(b []byte) { b[0] = 'X' })},
		{"bad version", mk(func(b []byte) { b[4] = Version + 1 })},
		{"unknown kind", mk(func(b []byte) { b[5] = 99 })},
		{"kind zero", mk(func(b []byte) { b[5] = 0 })},
		{"pull with payload", mk(func(b []byte) { b[5] = KindPull })},
		{"hello with codec", mk(func(b []byte) { b[5] = KindHello; b[6] = CodecRaw; binary.LittleEndian.PutUint32(b[28:], 0) })},
		{"push codec none", mk(func(b []byte) { b[6] = CodecNone })},
		{"push codec unknown", mk(func(b []byte) { b[6] = 9 })},
		{"reply codec quant", mk(func(b []byte) { b[5] = KindReply; b[6] = CodecQuant })},
		{"codec-less reply with payload", mk(func(b []byte) { b[5] = KindReply; b[6] = CodecNone })},
		{"checkpoint codec none", mk(func(b []byte) { b[5] = KindCheckpoint; b[6] = CodecNone; binary.LittleEndian.PutUint32(b[28:], 0) })},
		{"checkpoint codec quant", mk(func(b []byte) { b[5] = KindCheckpoint; b[6] = CodecQuant })},
		{"segment codec sparse", mk(func(b []byte) { b[5] = KindSegment; b[6] = CodecSparse })},
		{"segment not 8-aligned", mk(func(b []byte) { b[5] = KindSegment; binary.LittleEndian.PutUint32(b[28:], 12) })},
		{"tensor codec quant", mk(func(b []byte) { b[5] = KindTensor; b[6] = CodecQuant; b[12] = 1 })},
		{"tensor with a trailer", mk(func(b []byte) { b[5] = KindTensor; b[12] = 1; b[32] = 1 })},
		{"tensor with no rows", mk(func(b []byte) { b[5] = KindTensor })},
		{"tensor of micro-batch −1", mk(func(b []byte) { b[5] = KindTensor; b[12] = 1; binary.LittleEndian.PutUint32(b[8:], math.MaxUint32) })},
		{"tensor not 8-aligned", mk(func(b []byte) { b[5] = KindTensor; b[12] = 1; binary.LittleEndian.PutUint32(b[28:], 12) })},
		{"heartbeat with a payload", mk(func(b []byte) { b[5] = KindHeartbeat; b[6] = CodecNone })},
		{"heartbeat with a trailer", mk(func(b []byte) { b[5] = KindHeartbeat; b[6] = CodecNone; b[28] = 0; b[32] = 1 })},
		{"raw payload not 8-aligned", mk(func(b []byte) { binary.LittleEndian.PutUint32(b[28:], 15) })},
		{"payload over limit", mk(func(b []byte) { binary.LittleEndian.PutUint32(b[28:], 1<<30) })},
		{"trailer over limit", mk(func(b []byte) { binary.LittleEndian.PutUint32(b[32:], 1<<30) })},
	}
	for _, tc := range cases {
		if _, err := ParseHeader(tc.buf, Limits{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The limits are caller-tunable: a payload over a tight custom cap must
	// be rejected even though the default would admit it.
	tight := mk(func(b []byte) { binary.LittleEndian.PutUint32(b[28:], 1024) })
	if _, err := ParseHeader(tight, Limits{MaxPayload: 512}); err == nil {
		t.Error("custom MaxPayload not enforced")
	}
	if _, err := ParseHeader(tight, Limits{MaxPayload: 2048}); err != nil {
		t.Errorf("payload under custom limit rejected: %v", err)
	}
}

// TestWriterRefusesWhatItsReaderWould: a frame a Reader under the same
// limits would reject — too much payload, too much trailer, a kind/codec pair
// no peer accepts — is refused by the Writer before a byte goes out, and what
// it does write, that Reader reads.
func TestWriterRefusesWhatItsReaderWould(t *testing.T) {
	var buf bytes.Buffer
	lim := Limits{MaxPayload: 64, MaxTrailer: 16}
	w := Writer{W: &buf, Lim: lim}
	for name, write := range map[string]func() error{
		"payload over limit": func() error {
			return w.WriteRawFrame(&Header{Kind: KindCheckpoint}, make([]float64, 9), nil)
		},
		"trailer over limit": func() error {
			return w.WriteRawFrame(&Header{Kind: KindCheckpoint}, []float64{1}, make([]byte, 17))
		},
		"segment without the raw codec": func() error {
			return w.WriteFrame(&Header{Kind: KindSegment, Codec: CodecQuant}, make([]byte, 17), nil)
		},
		"pull with a payload": func() error {
			return w.WriteFrame(&Header{Kind: KindPull}, []byte{1}, nil)
		},
	} {
		if err := write(); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: Writer returned %v, want ErrFrame", name, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: a refused frame still wrote %d bytes", name, buf.Len())
		}
	}
	for _, kind := range []byte{KindCheckpoint, KindSegment} {
		if err := w.WriteRawFrame(&Header{Kind: kind, A: 1, B: 2, Seq: 3}, make([]float64, 8), make([]byte, 16)); err != nil {
			t.Fatalf("kind %d at the limit refused: %v", kind, err)
		}
		r := Reader{R: &buf, Lim: lim}
		h, payload, trailer, err := r.Next()
		if err != nil || h.Kind != kind || h.Codec != CodecRaw || h.A != 1 || h.B != 2 || h.Seq != 3 || len(payload) != 64 || len(trailer) != 16 {
			t.Fatalf("kind %d read back as %+v (%d, %d), %v", kind, h, len(payload), len(trailer), err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := Writer{W: &buf}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	trailer := []byte("telemetry blob")
	frames := []struct {
		h       Header
		payload []byte
		trailer []byte
	}{
		{Header{Kind: KindHello, A: 7}, nil, nil},
		{Header{Kind: KindPush, Codec: CodecRaw, A: 7, B: 10, C: 2, Seq: 3}, payload, trailer},
		{Header{Kind: KindReply, A: 3}, nil, []byte("some error")},
	}
	for i := range frames {
		if err := w.WriteFrame(&frames[i].h, frames[i].payload, frames[i].trailer); err != nil {
			t.Fatal(err)
		}
	}
	r := Reader{R: &buf}
	for i, f := range frames {
		h, p, tr, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if h != f.h {
			t.Fatalf("frame %d header: got %+v want %+v", i, h, f.h)
		}
		if !bytes.Equal(p, f.payload) {
			t.Fatalf("frame %d payload: got % x want % x", i, p, f.payload)
		}
		if !bytes.Equal(tr, f.trailer) {
			t.Fatalf("frame %d trailer: got %q want %q", i, tr, f.trailer)
		}
	}
	if _, _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

func TestWriteRawFrameRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, math.Pi, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	var buf bytes.Buffer
	w := Writer{W: &buf}
	h := Header{Kind: KindPush, A: 1, Seq: 1}
	if err := w.WriteRawFrame(&h, vals, nil); err != nil {
		t.Fatal(err)
	}
	r := Reader{R: &buf}
	got, p, _, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Codec != CodecRaw || int(got.PayloadLen) != 8*len(vals) {
		t.Fatalf("header %+v", got)
	}
	back, err := ParseRaw(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("value %d: got %v want %v", i, back[i], vals[i])
		}
	}
	if v, ok := RawView(p); ok {
		for i := range vals {
			if v[i] != vals[i] {
				t.Fatalf("view value %d: got %v want %v", i, v[i], vals[i])
			}
		}
	}
}

// TestRawPortablePath runs the raw codec on both of its paths — the
// zero-copy byte views of a little-endian host and the value-by-value
// encoding and decoding a big-endian host falls back to — and holds each to
// the layout spelled out byte by byte and the other bit for bit: AppendRaw,
// ReadRaw straight off a stream (over several of its buffers' worth), and a
// raw frame through WriteRawFrame and NextOwned.
func TestRawPortablePath(t *testing.T) {
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = math.Float64frombits(uint64(i)*0x9e3779b97f4a7c15 + 1) // scattered bit patterns
	}
	vals[0], vals[1] = math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x8000000000000001) // a NaN payload, a denormal
	var want []byte
	for _, v := range vals {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	sameBits := func(got []float64) bool {
		return len(got) == len(vals) && bytes.Equal(AppendRaw(nil, got), want)
	}
	for _, le := range []bool{true, false} {
		hostLittleEndian = le
		if !bytes.Equal(AppendRaw(nil, vals), want) {
			t.Fatalf("little-endian host %v: AppendRaw departs from the layout", le)
		}
		got := make([]float64, len(vals))
		if err := ReadRaw(bytes.NewReader(want), got); err != nil || !sameBits(got) {
			t.Fatalf("little-endian host %v: ReadRaw changed the values (%v)", le, err)
		}
		if err := ReadRaw(bytes.NewReader(want[:len(want)-1]), got); err == nil {
			t.Fatalf("little-endian host %v: ReadRaw filled %d values from a stream one byte short", le, len(got))
		}
		var buf bytes.Buffer
		w := Writer{W: &buf}
		if err := w.WriteRawFrame(&Header{Kind: KindReply, A: 1}, vals, nil); err != nil {
			t.Fatal(err)
		}
		r := Reader{R: &buf}
		if _, owned, _, err := r.NextOwned(10); err != nil || !sameBits(owned) {
			t.Fatalf("little-endian host %v: NextOwned changed the values (%v)", le, err)
		}
	}
}

// TestHostileLengthTruncated severs the stream right after a header claiming
// a large payload: the reader must fail with a truncation error, not block
// or succeed, and must not have allocated anywhere near the claimed size —
// whether it grows a buffer of its own or reads into a large one borrowed
// from the spare list, which it hands back as it was.
func TestHostileLengthTruncated(t *testing.T) {
	var hdr [HeaderSize]byte
	PutHeader(hdr[:], &Header{Kind: KindPush, Codec: CodecRaw, PayloadLen: 64 << 20})
	stream := append(append([]byte(nil), hdr[:]...), make([]byte, 1024)...)
	for _, spare := range []int{0, 1 << 20} {
		drainSpares()
		if spare > 0 {
			larges.Put(make([]byte, spare))
		}
		r := Reader{R: bytes.NewReader(stream)}
		var err error
		// readGrow grows with the bytes that actually arrived (~1KiB), never
		// the claimed 64 MiB up front.
		if grew := allocated(func() { _, _, _, err = r.Next() }); grew > 1<<20 {
			t.Fatalf("spare of %d bytes: reader allocated %d bytes for a truncated stream", spare, grew)
		}
		if err == nil {
			t.Fatal("truncated 64MiB claim accepted")
		}
		if r.payload != nil {
			t.Fatalf("spare of %d bytes: the failed read kept its buffer", spare)
		}
		if spare > 0 && (len(larges.free) != 1 || cap(larges.Get()) != spare) {
			t.Fatal("the failed read did not hand back the spare it borrowed, as it was")
		}
	}

	// A reply read into a caller-owned slice allocates up to its hint, the
	// model size the caller expects, and past it only as bytes arrive.
	PutHeader(hdr[:], &Header{Kind: KindReply, Codec: CodecRaw, PayloadLen: 64 << 20})
	for _, arrived := range []int{1 << 10, 4 << 20} {
		for _, hint := range []int{0, 1000, 1 << 20} {
			stream := append(append([]byte(nil), hdr[:]...), make([]byte, arrived)...)
			r := Reader{R: bytes.NewReader(stream)}
			var vals []float64
			var err error
			grew := allocated(func() { _, vals, _, err = r.NextOwned(hint) })
			if err == nil || vals != nil {
				t.Fatalf("truncated 64 MiB reply claim accepted (%d weights)", len(vals))
			}
			// Past the hint the slice doubles as bytes arrive: the last
			// buffer is at most twice what arrived plus a 64 KiB step, and
			// the ones before it add up to less than the last.
			if most := uint64(8*hint + 4*arrived + 256<<10); grew > most {
				t.Fatalf("%d bytes arrived, hint %d weights: the reply read allocated %d bytes, want at most %d", arrived, hint, grew, most)
			}
		}
	}
}

// allocated reports how many bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// drainSpares empties the process-wide buffer lists.
func drainSpares() {
	for smalls.Get() != nil {
	}
	for larges.Get() != nil {
	}
}

// TestLargeBuffersAreBorrowed pins who holds a frame buffer: nobody between
// frames, whatever its size. A Writer that has encoded a small and a large
// payload keeps neither; each went back to the list of its size. A Reader
// reads a small body into a borrowed 64 KiB buffer and a large one into a
// borrowed spare, and holds none once Release has handed them back; the
// small frame after a large one reads into a small buffer the first frame
// handed back.
func TestLargeBuffersAreBorrowed(t *testing.T) {
	drainSpares()
	var buf bytes.Buffer
	w := Writer{W: &buf}
	small, large := make([]uint8, 1000), make([]uint8, 100_000)
	for i, data := range [][]uint8{small, large, small} {
		h := Header{Kind: KindPush, Seq: uint64(i)}
		if err := w.WriteQuantFrame(&h, -1, 0.5, data, bytes.Repeat([]byte{'t'}, len(data))); err != nil {
			t.Fatal(err)
		}
	}
	if len(smalls.free) != 1 || len(larges.free) != 1 {
		t.Fatalf("the writer handed back %d small and %d large buffers, want its one of each", len(smalls.free), len(larges.free))
	}
	r := Reader{R: &buf}
	var kept [2]*byte
	for i, data := range [][]uint8{small, large, small} {
		_, p, tr, err := r.Next()
		if err != nil || len(p) != QuantSize(len(data)) || len(tr) != len(data) {
			t.Fatalf("frame %d: %d payload and %d trailer bytes, %v", i, len(p), len(tr), err)
		}
		switch i {
		case 0:
			if cap(p) != spareMin || cap(tr) != spareMin {
				t.Fatalf("small bodies read into %d and %d bytes, want borrowed %d-byte buffers", cap(p), cap(tr), spareMin)
			}
			kept = [2]*byte{&p[0], &tr[0]}
		case 1:
			if len(larges.free) != 0 || cap(p) <= spareMin {
				t.Fatalf("the large payload was not read into the borrowed spare (%d left)", len(larges.free))
			}
		case 2:
			if &p[0] != kept[0] && &p[0] != kept[1] {
				t.Fatal("the small frame after a large one did not reuse a small buffer handed back")
			}
		}
	}
	r.Release()
	if r.payload != nil || r.trailer != nil {
		t.Fatalf("after Release the reader holds %d + %d bytes", cap(r.payload), cap(r.trailer))
	}
	if len(smalls.free) != 2 || len(larges.free) != 2 {
		t.Fatalf("the lists hold %d small and %d large buffers, want each frame's payload and trailer", len(smalls.free), len(larges.free))
	}
}

// TestReaderKeepsNoBodyOverKeep pins Reader.Keep: a body over it goes to the
// GC on Release, a large one within it and a small one of any size go back to
// their lists, and Keep 0 lists every body.
func TestReaderKeepsNoBodyOverKeep(t *testing.T) {
	const keep = 100_000
	for _, c := range []struct {
		keep, payload, trailer int
		wantSmall, wantLarge   int
	}{
		{keep, 3 * keep, 0, 0, 0},     // a refused oversized push
		{keep, keep, 10, 1, 1},        // the model's own frame and a telemetry trailer
		{keep, 2 * keep, keep, 0, 1},  // only the body within Keep is listed
		{10, 1000, 0, 1, 0},           // a tiny model still lists its small buffers
		{0, 3 * keep, 2 * keep, 0, 2}, // no Keep: every body is listed
	} {
		drainSpares()
		var buf bytes.Buffer
		h := Header{Kind: KindPush, Codec: CodecRaw}
		if err := (&Writer{W: &buf}).WriteFrame(&h, make([]byte, c.payload), make([]byte, c.trailer)); err != nil {
			t.Fatal(err)
		}
		drainSpares() // the writer's own buffers are not this test's
		r := Reader{R: &buf, Keep: c.keep}
		if _, _, _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		r.Release()
		if len(smalls.free) != c.wantSmall || len(larges.free) != c.wantLarge {
			t.Errorf("Keep %d, bodies of %d and %d bytes: %d small and %d large listed, want %d and %d",
				c.keep, c.payload, c.trailer, len(smalls.free), len(larges.free), c.wantSmall, c.wantLarge)
		}
		for _, b := range larges.free {
			if c.keep > 0 && cap(b) > c.keep {
				t.Errorf("Keep %d: a %d-byte body is listed", c.keep, cap(b))
			}
		}
	}
}

func TestQuantCodecRoundTrip(t *testing.T) {
	data := []uint8{0, 1, 127, 255}
	p := AppendQuant(nil, -1.5, 0.25, data)
	if len(p) != QuantSize(len(data)) {
		t.Fatalf("payload %d bytes, want %d", len(p), QuantSize(len(data)))
	}
	min, scale, back, err := ParseQuant(p)
	if err != nil {
		t.Fatal(err)
	}
	if min != -1.5 || scale != 0.25 || !bytes.Equal(back, data) {
		t.Fatalf("got min=%v scale=%v data=%v", min, scale, back)
	}
	if _, _, _, err := ParseQuant(p[:8]); err == nil {
		t.Error("short quant payload accepted")
	}
	bad := AppendQuant(nil, math.NaN(), 1, data)
	if _, _, _, err := ParseQuant(bad); err == nil {
		t.Error("NaN min accepted")
	}
	bad = AppendQuant(nil, 0, math.Inf(1), data)
	if _, _, _, err := ParseQuant(bad); err == nil {
		t.Error("Inf scale accepted")
	}
}

func TestSparseCodecRoundTrip(t *testing.T) {
	idx := []uint32{0, 3, 9}
	vals := []float64{1.5, -2.5, 42}
	p := AppendSparse(nil, 10, idx, vals)
	if len(p) != SparseSize(len(idx)) {
		t.Fatalf("payload %d bytes, want %d", len(p), SparseSize(len(idx)))
	}
	dl, bi, bv, err := ParseSparse(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dl != 10 {
		t.Fatalf("denseLen %d", dl)
	}
	for i := range idx {
		if bi[i] != idx[i] || bv[i] != vals[i] {
			t.Fatalf("pair %d: got (%d,%v) want (%d,%v)", i, bi[i], bv[i], idx[i], vals[i])
		}
	}
	// Destination reuse must not reallocate.
	bi2, bv2 := bi, bv
	if _, bi2, bv2, err = ParseSparse(p, bi2, bv2); err != nil {
		t.Fatal(err)
	}
	if &bi2[0] != &bi[0] || &bv2[0] != &bv[0] {
		t.Error("destination slices were reallocated despite sufficient capacity")
	}
}

func TestSparseCodecRejects(t *testing.T) {
	good := func() []byte { return AppendSparse(nil, 10, []uint32{1, 5}, []float64{1, 2}) }
	cases := []struct {
		name string
		p    []byte
	}{
		{"short", good()[:4]},
		{"truncated pairs", good()[:SparseSize(2)-1]},
		{"extra bytes", append(good(), 0)},
		{"k over denseLen", AppendSparse(nil, 1, []uint32{0, 1}, []float64{1, 2})},
		{"descending idx", AppendSparse(nil, 10, []uint32{5, 1}, []float64{1, 2})},
		{"duplicate idx", AppendSparse(nil, 10, []uint32{5, 5}, []float64{1, 2})},
		{"idx out of range", AppendSparse(nil, 10, []uint32{1, 10}, []float64{1, 2})},
		{"NaN value", AppendSparse(nil, 10, []uint32{1, 5}, []float64{1, math.NaN()})},
		{"Inf value", AppendSparse(nil, 10, []uint32{1, 5}, []float64{math.Inf(-1), 2})},
	}
	for _, tc := range cases {
		if _, _, _, err := ParseSparse(tc.p, nil, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), "wire:") {
			t.Errorf("%s: error %v not tagged ErrFrame", tc.name, err)
		}
	}
}

func TestViews(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: views are disabled by design")
	}
	w := []float64{1, 2.5, -3}
	b, ok := BytesView(w)
	if !ok || len(b) != 24 {
		t.Fatalf("BytesView: ok=%v len=%d", ok, len(b))
	}
	v, ok := Float64View(b)
	if !ok {
		t.Fatal("Float64View rejected an 8-aligned buffer")
	}
	for i := range w {
		if v[i] != w[i] {
			t.Fatalf("view[%d]=%v want %v", i, v[i], w[i])
		}
	}
	if _, ok := Float64View(b[:7]); ok {
		t.Error("Float64View accepted a non-multiple-of-8 buffer")
	}
	if _, ok := Float64View(b[1:9]); ok {
		t.Error("Float64View accepted a misaligned buffer")
	}
	if v, ok := Float64View(nil); !ok || len(v) != 0 {
		t.Error("Float64View rejected the empty buffer")
	}
}
