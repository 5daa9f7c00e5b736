package runtime

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

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
	return appendFrame(nil, micro, &tensor.Tensor{Shape: shape, Data: data})
}

// rawFrame hand-assembles a frame whose header fields need not agree with
// each other or with the payload — what only a hostile peer can send.
func rawFrame(magic string, micro int32, ndims, payloadLen uint32, dims []int32, payload []byte) []byte {
	b := append([]byte(nil), magic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(micro))
	b = binary.LittleEndian.AppendUint32(b, ndims)
	b = binary.LittleEndian.AppendUint32(b, payloadLen)
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return append(b, payload...)
}

// FuzzLinkRecvDecode throws arbitrary byte streams at the pipeline link's
// frame decoder (runs the seed corpus under plain `go test`; use
// `go test -fuzz=FuzzLinkRecvDecode` for continuous fuzzing). Every tensor
// handed back has a shape that exactly matches its payload, within the
// dimension bounds, with only finite values — no matter what shapes, lengths,
// or payloads the bytes claim to carry. Truncated streams (a connection
// severed mid-frame) must error out, never panic or hang.
func FuzzLinkRecvDecode(f *testing.F) {
	f.Add(frame(0, []int{2, 3}, 1, 2, 3, 4, 5, 6))
	f.Add(append(append([]byte(nil), heartbeatFrame...), frame(1, []int{4}, 1, 2, 3, 4)...))
	// Hostile frames: truncated stream, oversized dim counts, dim products
	// that overflow, negative dims, NaN-poisoned payloads, length mismatch.
	whole := frame(2, []int{8}, make([]float64, 8)...)
	f.Add(whole[:len(whole)/2])
	f.Add(frame(0, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, 0))
	f.Add(frame(0, []int{1 << 20, 1 << 20, 1 << 20}))
	f.Add(frame(0, []int{-4, 2}, 1))
	f.Add(frame(0, []int{2}, math.NaN(), 1))
	f.Add(frame(0, []int{3}, 1))
	f.Add(frame(-9, []int{1}, 1))
	f.Add([]byte("\x7fthis is not a frame stream"))
	f.Add([]byte{})
	f.Add(rawFrame("EFLB", 0, 1, 8, []int32{1}, make([]byte, 8)))
	// A 128 MB claim (inside the limits) on a 100-byte stream.
	f.Add(rawFrame("EFPT", 0, 1, 128<<20, []int32{1 << 24}, make([]byte, 80)))
	f.Add(rawFrame("EFPT", heartbeatMicro, 0, 8, nil, make([]byte, 8)))
	f.Fuzz(checkDecodedStream)
}

// checkDecodedStream decodes raw and checks every tensor that comes out
// against the frame invariants.
func checkDecodedStream(t *testing.T, raw []byte) {
	l := byteLink(raw)
	for n := 0; n < 64; n++ {
		micro, tt, err := l.recv()
		if err != nil {
			break // malformed, hostile, or exhausted: the round aborts
		}
		if micro < 0 {
			t.Fatalf("negative micro %d escaped validation", micro)
		}
		if len(tt.Shape) == 0 || len(tt.Shape) > maxFrameDims {
			t.Fatalf("shape %v escaped dim bounds", tt.Shape)
		}
		elems := 1
		for _, d := range tt.Shape {
			if d <= 0 {
				t.Fatalf("non-positive dim in %v escaped validation", tt.Shape)
			}
			elems *= d
		}
		if elems != len(tt.Data) || elems > maxFrameElems {
			t.Fatalf("shape %v vs %d elements escaped validation", tt.Shape, len(tt.Data))
		}
		for _, v := range tt.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite value escaped validation")
			}
		}
	}
}
