package runtime

import (
	"bytes"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/tensor"
)

// byteConn adapts a byte buffer to net.Conn so link.recv can be driven by
// arbitrary fuzzer-supplied streams without a live peer.
type byteConn struct{ r *bytes.Reader }

func (c *byteConn) Read(b []byte) (int, error)         { return c.r.Read(b) }
func (c *byteConn) Write(b []byte) (int, error)        { return len(b), nil }
func (c *byteConn) Close() error                       { return nil }
func (c *byteConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *byteConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *byteConn) SetDeadline(t time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(t time.Time) error { return nil }

// byteLink is a receive-only link over a fixed byte stream.
func byteLink(raw []byte) *link {
	return &link{conn: &byteConn{r: bytes.NewReader(raw)}}
}

// frame encodes data frames through the link's own encoder. The encoder does
// not validate, so a tensor whose Shape and Data disagree, or whose values
// are poisoned, comes out as the hostile frame it describes.
func frame(micro int, shape []int, data ...float64) []byte {
	return encodeFrame(nil, micro, &tensor.Tensor{Shape: shape, Data: data})
}

// rawFrame hand-assembles a frame whose header fields need not agree with
// each other or with the body — what only a hostile peer can send.
func rawFrame(h wire.Header, body []byte) []byte {
	b := make([]byte, wire.HeaderSize, wire.HeaderSize+len(body))
	wire.PutHeader(b, &h)
	return append(b, body...)
}

// fuzzShape is the tensor FuzzLinkRecvDecode's receiver waits for.
var fuzzShape = []int{2, 3}

// FuzzLinkRecvDecode throws arbitrary byte streams at a pipeline link that
// waits for 2×3 tensors (runs the seed corpus under plain `go test`; use
// `go test -fuzz=FuzzLinkRecvDecode` for continuous fuzzing). Every tensor
// handed back has exactly that shape, a non-negative micro-batch index and
// only finite values — no matter what kinds, rows, lengths or payloads the
// bytes claim to carry. Truncated streams (a connection severed mid-frame)
// must error out, never panic or hang.
func FuzzLinkRecvDecode(f *testing.F) {
	six := []float64{1, 2, 3, 4, 5, 6}
	whole := frame(2, fuzzShape, six...)
	tensorHdr := wire.Header{Kind: wire.KindTensor, Codec: wire.CodecRaw, B: 2, PayloadLen: 48}
	f.Add(whole)
	f.Add(append(slices.Clone(heartbeatFrame), frame(1, fuzzShape, six...)...))
	f.Add(append(slices.Clone(whole), whole...))
	// Hostile frames: a truncated stream, a heartbeat with a body, frames of
	// another kind, rows or length, a 128 MiB claim (inside the limits) on a
	// short stream, poisoned values, negative micro-batches.
	f.Add(whole[:len(whole)/2])
	f.Add(rawFrame(wire.Header{Kind: wire.KindHeartbeat, PayloadLen: 8}, make([]byte, 8)))
	f.Add(rawFrame(wire.Header{Kind: wire.KindHeartbeat, TrailerLen: 8}, make([]byte, 8)))
	f.Add(rawFrame(wire.Header{Kind: wire.KindSegment, Codec: wire.CodecRaw, B: 2, PayloadLen: 48}, make([]byte, 48)))
	f.Add(frame(0, []int{3, 2}, six...))
	f.Add(frame(0, []int{2, 4}, make([]float64, 8)...))
	f.Add(frame(0, fuzzShape, 1, 2, 3, 4))
	f.Add(rawFrame(wire.Header{Kind: wire.KindTensor, Codec: wire.CodecRaw, B: 2, PayloadLen: 128 << 20}, make([]byte, 80)))
	f.Add(frame(0, fuzzShape, 1, math.NaN(), 3, 4, 5, 6))
	f.Add(frame(0, fuzzShape, 1, 2, 3, 4, 5, math.Inf(-1)))
	f.Add(frame(-9, fuzzShape, six...))
	trailer := tensorHdr
	trailer.TrailerLen = 8
	f.Add(rawFrame(trailer, make([]byte, 56)))
	f.Add([]byte("\x7fthis is not a frame stream"))
	f.Add([]byte{})
	f.Fuzz(checkDecodedStream)
}

// checkDecodedStream decodes raw and checks every tensor that comes out
// against the frame invariants.
func checkDecodedStream(t *testing.T, raw []byte) {
	l := byteLink(raw)
	for n := 0; n < 64; n++ {
		micro, tt, err := l.recv(fuzzShape)
		if err != nil {
			break // malformed, hostile, or exhausted: the round aborts
		}
		if micro < 0 {
			t.Fatalf("negative micro %d escaped validation", micro)
		}
		if !slices.Equal(tt.Shape, fuzzShape) || len(tt.Data) != 6 {
			t.Fatalf("a %v tensor of %d elements escaped validation", tt.Shape, len(tt.Data))
		}
		for _, v := range tt.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite value escaped validation")
			}
		}
	}
}
