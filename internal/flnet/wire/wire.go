// Package wire is the length-prefixed binary framing of the flnet
// transport. Every frame is
//
//	magic "EFLB" (4) | version (1) | kind (1) | codec (1) | flags (1)
//	A int32 | B int32 | C int32 | Seq uint64 | PayloadLen u32 | TrailerLen u32
//	payload (PayloadLen bytes) | trailer (TrailerLen bytes)
//
// all little-endian, 36 bytes of fixed header. The A/B/C fields are
// kind-specific (client id / num samples / base version on requests; model
// version / unused / unused on replies and checkpoints; layer range on
// migrated segments). Payloads carry model weights in one of three codecs:
// raw float64 (zero-copy []byte↔[]float64 views where the host allows it),
// int8 affine quantization (min + scale + one byte per weight), or a top-k
// sparse delta (index/value pairs against a reference model both ends
// hold). The trailer carries out-of-band data — a JSON telemetry snapshot
// on requests, a plain error string on replies, the dedup marks on a
// checkpoint — none of which is hot.
//
// The same frame is a weight vector at rest and in migration: a server
// checkpoint is one KindCheckpoint frame in a file, a segment a healing
// pipeline re-homes one KindSegment frame on a link; both raw, like a push.
//
// Decoding is fail-closed, like the pipeline runtime's link frames
// (runtime/link.go recv): magic, version, kind, codec, and both length
// prefixes are validated against hard limits before any allocation, payload
// buffers grow geometrically while reading (a hostile length prefix on a
// truncated stream cannot force a giant up-front allocation), and the
// sparse codec rejects out-of-range or non-ascending indices and non-finite
// values before they can touch training state.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Frame geometry.
const (
	// HeaderSize is the fixed frame header length, magic included.
	HeaderSize = 36
	// Version is the wire format version; bumped on incompatible changes.
	Version = 1
)

// Magic opens every frame.
var Magic = [4]byte{'E', 'F', 'L', 'B'}

// Frame kinds.
const (
	KindHello      byte = 1 // client→server: first frame on a connection
	KindHelloAck   byte = 2 // server→client: version accepted
	KindPull       byte = 3
	KindPush       byte = 4
	KindTelemetry  byte = 5
	KindReply      byte = 6
	KindCheckpoint byte = 7 // at rest: A version, Seq pushes, raw weights, trailer dedup marks
	KindSegment    byte = 8 // migrated layers [A, B), raw weights
)

// Payload codecs.
const (
	CodecNone   byte = 0
	CodecRaw    byte = 1 // float64 LE, 8 bytes per weight
	CodecQuant  byte = 2 // min f64, scale f64, one byte per weight
	CodecSparse byte = 3 // denseLen u32, k u32, k×(idx u32), k×(val f64)
)

// Frame flags.
const (
	// FlagTelemetry marks a request whose trailer is a JSON telemetry
	// snapshot.
	FlagTelemetry byte = 1
)

// Header is the decoded fixed header of one frame.
type Header struct {
	Kind  byte
	Codec byte
	Flags byte
	A     int32  // clientID (requests) | model version (replies)
	B     int32  // numSamples (requests) | unused (replies)
	C     int32  // baseVersion (requests) | unused (replies)
	Seq   uint64 // push sequence number; 0 elsewhere
	// PayloadLen and TrailerLen are set by the writer from the slices it is
	// handed; readers get them validated against Limits.
	PayloadLen uint32
	TrailerLen uint32
}

// Limits bounds what a reader will accept from the peer. The zero value
// means the defaults.
type Limits struct {
	// MaxPayload caps PayloadLen (default 128 MiB — 16M float64 weights,
	// mirroring the pipeline link's maxFrameElems).
	MaxPayload int
	// MaxTrailer caps TrailerLen (default 4 MiB; trailers carry telemetry
	// snapshots, error strings and dedup marks, never weights).
	MaxTrailer int
}

const (
	defaultMaxPayload = 128 << 20
	defaultMaxTrailer = 4 << 20
)

func (l Limits) maxPayload() int {
	if l.MaxPayload > 0 {
		return l.MaxPayload
	}
	return defaultMaxPayload
}

func (l Limits) maxTrailer() int {
	if l.MaxTrailer > 0 {
		return l.MaxTrailer
	}
	return defaultMaxTrailer
}

// ErrFrame tags every framing-validation failure so transports can tell a
// hostile or corrupt frame from plain transport errors.
var ErrFrame = errors.New("wire: invalid frame")

// PutHeader encodes h into buf[:HeaderSize].
func PutHeader(buf []byte, h *Header) {
	_ = buf[HeaderSize-1]
	copy(buf, Magic[:])
	buf[4] = Version
	buf[5] = h.Kind
	buf[6] = h.Codec
	buf[7] = h.Flags
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.A))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.B))
	binary.LittleEndian.PutUint32(buf[16:], uint32(h.C))
	binary.LittleEndian.PutUint64(buf[20:], h.Seq)
	binary.LittleEndian.PutUint32(buf[28:], h.PayloadLen)
	binary.LittleEndian.PutUint32(buf[32:], h.TrailerLen)
}

// ParseHeader decodes and validates buf[:HeaderSize]. It fails closed on
// bad magic, unknown version/kind/codec, kind↔codec combinations a correct
// peer can never produce, and length prefixes beyond lim.
func ParseHeader(buf []byte, lim Limits) (Header, error) {
	var h Header
	if len(buf) < HeaderSize {
		return h, fmt.Errorf("%w: truncated header (%d bytes)", ErrFrame, len(buf))
	}
	if buf[0] != Magic[0] || buf[1] != Magic[1] || buf[2] != Magic[2] || buf[3] != Magic[3] {
		return h, fmt.Errorf("%w: bad magic % x", ErrFrame, buf[:4])
	}
	if buf[4] != Version {
		return h, fmt.Errorf("%w: version %d, want %d", ErrFrame, buf[4], Version)
	}
	h.Kind = buf[5]
	h.Codec = buf[6]
	h.Flags = buf[7]
	h.A = int32(binary.LittleEndian.Uint32(buf[8:]))
	h.B = int32(binary.LittleEndian.Uint32(buf[12:]))
	h.C = int32(binary.LittleEndian.Uint32(buf[16:]))
	h.Seq = binary.LittleEndian.Uint64(buf[20:])
	h.PayloadLen = binary.LittleEndian.Uint32(buf[28:])
	h.TrailerLen = binary.LittleEndian.Uint32(buf[32:])
	if int64(h.PayloadLen) > int64(lim.maxPayload()) {
		return h, fmt.Errorf("%w: payload %d exceeds limit %d", ErrFrame, h.PayloadLen, lim.maxPayload())
	}
	if int64(h.TrailerLen) > int64(lim.maxTrailer()) {
		return h, fmt.Errorf("%w: trailer %d exceeds limit %d", ErrFrame, h.TrailerLen, lim.maxTrailer())
	}
	switch h.Kind {
	case KindHello, KindHelloAck, KindPull, KindTelemetry:
		if h.Codec != CodecNone || h.PayloadLen != 0 {
			return h, fmt.Errorf("%w: kind %d carries a payload", ErrFrame, h.Kind)
		}
	case KindPush:
		if h.Codec != CodecRaw && h.Codec != CodecQuant && h.Codec != CodecSparse {
			return h, fmt.Errorf("%w: push codec %d", ErrFrame, h.Codec)
		}
	case KindCheckpoint, KindSegment:
		if h.Codec != CodecRaw {
			return h, fmt.Errorf("%w: kind %d codec %d, want raw", ErrFrame, h.Kind, h.Codec)
		}
	case KindReply:
		if h.Codec != CodecNone && h.Codec != CodecRaw {
			return h, fmt.Errorf("%w: reply codec %d", ErrFrame, h.Codec)
		}
		if h.Codec == CodecNone && h.PayloadLen != 0 {
			return h, fmt.Errorf("%w: codec-less reply carries a payload", ErrFrame)
		}
	default:
		return h, fmt.Errorf("%w: unknown kind %d", ErrFrame, h.Kind)
	}
	if h.Codec == CodecRaw && h.PayloadLen%8 != 0 {
		return h, fmt.Errorf("%w: raw payload length %d not a multiple of 8", ErrFrame, h.PayloadLen)
	}
	return h, nil
}

// Reader decodes frames from a stream into reusable buffers. The payload
// and trailer slices returned by Next alias the Reader's internal buffers
// and are valid only until the following Next or NextOwned call.
type Reader struct {
	R   io.Reader
	Lim Limits

	hdr     [HeaderSize]byte
	payload []byte
	trailer []byte
}

// Next reads one frame. On any validation or transport error the reader is
// poisoned for the connection (framing has no resync point, by design).
func (r *Reader) Next() (Header, []byte, []byte, error) {
	h, err := r.header()
	if err != nil {
		return h, nil, nil, err
	}
	if r.payload, err = ReadGrow(r.R, r.payload, int(h.PayloadLen)); err != nil {
		return h, nil, nil, err
	}
	if r.trailer, err = ReadGrow(r.R, r.trailer, int(h.TrailerLen)); err != nil {
		return h, nil, nil, err
	}
	return h, r.payload, r.trailer, nil
}

// NextOwned reads one frame like Next, except that a raw payload goes
// straight from the stream into a fresh []float64 the caller owns, with no
// copy through the reader's buffer; vals is nil when the frame has no
// payload, and a payload in any other codec fails closed. Up to hint weights
// are allocated up front (a caller passes the model size it expects); beyond
// that the slice grows only as bytes arrive, as in ReadGrow, so a hostile
// length claim on a truncated stream still cannot allocate its stated size.
// The trailer aliases the reader's buffer, as in Next.
func (r *Reader) NextOwned(hint int) (h Header, vals []float64, trailer []byte, err error) {
	if h, err = r.header(); err != nil {
		return h, nil, nil, err
	}
	switch {
	case h.Codec == CodecRaw:
		if vals, err = r.readRaw(int(h.PayloadLen)/8, hint); err != nil {
			return h, nil, nil, err
		}
	case h.PayloadLen != 0:
		return h, nil, nil, fmt.Errorf("%w: kind %d codec %d where a raw payload was expected", ErrFrame, h.Kind, h.Codec)
	}
	if r.trailer, err = ReadGrow(r.R, r.trailer, int(h.TrailerLen)); err != nil {
		return h, nil, nil, err
	}
	return h, vals, r.trailer, nil
}

// header reads and validates one frame header.
func (r *Reader) header() (Header, error) {
	if _, err := io.ReadFull(r.R, r.hdr[:]); err != nil {
		return Header{}, err
	}
	return ParseHeader(r.hdr[:], r.Lim)
}

// readRaw reads n raw weights into a new slice, allocating min(n, hint) of
// them up front and growing past that geometrically as bytes arrive. A
// big-endian host reads through the frame buffer and ParseRaw instead.
func (r *Reader) readRaw(n, hint int) ([]float64, error) {
	if !hostLittleEndian {
		var err error
		if r.payload, err = ReadGrow(r.R, r.payload, 8*n); err != nil {
			return nil, err
		}
		return ParseRaw(r.payload, nil)
	}
	const chunk = 8 << 10 // weights: ReadGrow's 64 KiB step
	var vals []float64
	if c := min(n, hint); c > 0 {
		vals = make([]float64, 0, c)
	}
	for len(vals) < n {
		start := len(vals)
		end := min(n, max(cap(vals), 2*start+chunk))
		if cap(vals) < end {
			vals = append(make([]float64, 0, end), vals...)
		}
		vals = vals[:end]
		b, _ := BytesView(vals[start:])
		if _, err := io.ReadFull(r.R, b); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// ReadGrow reads exactly n bytes into buf, reusing its capacity and growing
// geometrically as bytes actually arrive: a hostile length prefix on a
// truncated stream allocates at most ~2× the bytes received, never the
// claimed n up front. The pipeline's link frames read through it too.
func ReadGrow(r io.Reader, buf []byte, n int) ([]byte, error) {
	const chunk = 64 << 10
	buf = buf[:0]
	for len(buf) < n {
		start := len(buf)
		step := min(n-start, start+chunk)
		if cap(buf) < start+step {
			buf = append(make([]byte, 0, start+step), buf...)
		}
		buf = buf[:start+step]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf[:start], err
		}
	}
	return buf, nil
}

// Writer encodes frames onto a stream through a reusable scratch buffer,
// with at most three Write calls per frame (header, payload, trailer) so
// raw float64 payloads go out as zero-copy views on little-endian hosts.
type Writer struct {
	W   io.Writer
	Lim Limits

	hdr     [HeaderSize]byte
	scratch []byte
}

// WriteFrame emits one frame with an explicit byte payload. h.PayloadLen
// and h.TrailerLen are set from the slices (saturating: no length wraps into
// range), and what a Reader under the same Lim would refuse is refused here.
func (w *Writer) WriteFrame(h *Header, payload, trailer []byte) error {
	h.PayloadLen = uint32(min(uint64(len(payload)), math.MaxUint32))
	h.TrailerLen = uint32(min(uint64(len(trailer)), math.MaxUint32))
	PutHeader(w.hdr[:], h)
	if _, err := ParseHeader(w.hdr[:], w.Lim); err != nil {
		return err
	}
	if _, err := w.W.Write(w.hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.W.Write(payload); err != nil {
			return err
		}
	}
	if len(trailer) > 0 {
		if _, err := w.W.Write(trailer); err != nil {
			return err
		}
	}
	return nil
}

// WriteRawFrame emits one frame whose payload is vals in the raw codec,
// written as a zero-copy byte view when the host allows it.
func (w *Writer) WriteRawFrame(h *Header, vals []float64, trailer []byte) error {
	h.Codec = CodecRaw
	if b, ok := BytesView(vals); ok {
		return w.WriteFrame(h, b, trailer)
	}
	w.scratch = AppendRaw(w.scratch[:0], vals)
	return w.WriteFrame(h, w.scratch, trailer)
}
