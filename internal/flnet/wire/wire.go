// Package wire is the length-prefixed binary framing of every byte the
// program sends: the flnet transport, server checkpoints and the pipeline's
// stage links. Every frame is
//
//	magic "EFLB" (4) | version (1) | kind (1) | codec (1) | flags (1)
//	A int32 | B int32 | C int32 | Seq uint64 | PayloadLen u32 | TrailerLen u32
//	payload (PayloadLen bytes) | trailer (TrailerLen bytes)
//
// all little-endian, 36 bytes of fixed header; the A/B/C fields are
// kind-specific (see Header). Payloads carry model weights in one of three
// codecs: raw float64 (zero-copy []byte↔[]float64 views where the host
// allows it), int8 affine quantization (min + scale + one byte per weight),
// or a top-k sparse delta (index/value pairs against a reference model both
// ends hold). The trailer carries out-of-band data — a JSON telemetry
// snapshot on requests, a plain error string on replies, the dedup marks on
// a checkpoint — none of which is hot.
//
// The same raw frame is a weight vector at rest and in migration and a
// tensor between pipeline stages: a server checkpoint is one KindCheckpoint
// frame in a file, a segment a healing pipeline re-homes one KindSegment
// frame on a link, an activation or gradient one KindTensor frame. An idle
// stage link's keepalive is a KindHeartbeat header with no body.
//
// Decoding is fail-closed: magic, version, kind, codec, and both length
// prefixes are validated against hard limits before any allocation, payload
// buffers grow geometrically while reading (a hostile length prefix on a
// truncated stream cannot force a giant up-front allocation), and the
// sparse codec rejects out-of-range or non-ascending indices and non-finite
// values before they can touch training state.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
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
	KindCheckpoint byte = 7  // at rest: A version, Seq pushes, raw weights, trailer dedup marks
	KindSegment    byte = 8  // migrated layers [A, B), raw weights
	KindTensor     byte = 9  // stage activation or gradient: micro-batch A, B rows, raw values
	KindHeartbeat  byte = 10 // idle stage link keepalive: no codec, no body
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
	A     int32  // clientID (requests) | model version (replies) | first layer (segments) | micro-batch (tensors)
	B     int32  // numSamples (requests) | end layer (segments) | rows (tensors)
	C     int32  // baseVersion (requests); unused elsewhere
	Seq   uint64 // push sequence number; 0 elsewhere
	// PayloadLen and TrailerLen are set by the writer from the slices it is
	// handed; readers get them validated against Limits.
	PayloadLen uint32
	TrailerLen uint32
}

// Limits bounds what a reader will accept from the peer. The zero value
// means the defaults.
type Limits struct {
	// MaxPayload caps PayloadLen (default 128 MiB — 16M float64 weights).
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
	case KindHello, KindHelloAck, KindPull, KindTelemetry, KindHeartbeat:
		if h.Codec != CodecNone || h.PayloadLen != 0 || h.Kind == KindHeartbeat && h.TrailerLen != 0 {
			return h, fmt.Errorf("%w: kind %d carries a body", ErrFrame, h.Kind)
		}
	case KindPush:
		if h.Codec != CodecRaw && h.Codec != CodecQuant && h.Codec != CodecSparse {
			return h, fmt.Errorf("%w: push codec %d", ErrFrame, h.Codec)
		}
	case KindTensor:
		if h.Codec != CodecRaw || h.TrailerLen != 0 || h.A < 0 || h.B <= 0 {
			return h, fmt.Errorf("%w: tensor codec %d, trailer %d, micro-batch %d, rows %d", ErrFrame, h.Codec, h.TrailerLen, h.A, h.B)
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

// Frame buffers. No buffer belongs to a connection. Every frame body a
// Reader reads, every payload a Writer encodes and every frame a Writer
// gathers between Begin and End goes into a buffer borrowed for that one
// frame, and is handed back once the frame is done with: a Reader's at its
// next Next or NextOwned, before it blocks on the header, or at Release; an
// encoded payload once its frame is written; a gathering writer at End. So
// an idle connection holds no buffer. A buffer comes from one of three
// bounded lists: small ones of exactly spareMin bytes, for bodies of at most
// that, larger ones, and spareMin-byte bufio.Writers. A list is only as full
// as the most buffers of its kind ever borrowed at once, so the process holds
// about as many as it has had frames in flight, up to the list's depth; past
// the depth, a frame allocates its buffer and drops it.
const (
	// spareMin is the size of every small buffer and gathering writer, and
	// readGrow's first step, so a body of at most spareMin bytes never grows
	// the buffer it is read into.
	spareMin = 64 << 10
	// ListDepth is how deep the small list and the writer list are, and
	// flnet's sparse scratch lists. A push in flight holds about one small
	// buffer and one writer at a time across both ends: counted under the
	// load of TestPushesInFlight in internal/flnet, where a slow link holds
	// up every session's frames, the peak was 61 and 65 of them with 64
	// sessions, 131 and 128 with 128. So 128 covers twice the benchmark's
	// 64-session fleet all in flight at once, or a server whose 128 portals
	// all have a frame in flight; past that, a frame allocates its buffer
	// and drops it.
	ListDepth = 128
	// largeCap covers fewer: a frame over 64 KiB carries a model, which its
	// receiver allocates anyway.
	largeCap = 8
)

// Spares is a bounded free list of buffers, each lent for one frame. It is
// not a sync.Pool: two GC cycles empty a sync.Pool, and a server ingesting
// 800 KB pushes runs one every few pushes, after which every pooled buffer
// would be allocated again. Nor is it a channel, which allocates all its
// slots when it is made: its backing array grows only as far as the most
// buffers ever listed at once, so a list no frame has used costs a few
// words in every process.
type Spares[T any] struct {
	mu    sync.Mutex
	free  [][]T
	depth int
}

// NewSpares returns an empty list that holds at most depth buffers.
func NewSpares[T any](depth int) *Spares[T] { return &Spares[T]{depth: depth} }

// Get borrows an empty buffer from s, or returns nil when s is empty.
func (s *Spares[T]) Get() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return nil
	}
	b := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return b[:0]
}

// Put hands b back to s. It drops b when s is full or b has no capacity.
func (s *Spares[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	s.mu.Lock()
	if len(s.free) < s.depth {
		s.free = append(s.free, b)
	}
	s.mu.Unlock()
}

var (
	smalls = NewSpares[byte](ListDepth) // buffers of exactly spareMin bytes
	larges = NewSpares[byte](largeCap)  // buffers over spareMin bytes
)

// Borrow returns an empty buffer with room for n bytes: a small one for n of
// at most 64 KiB, a large one otherwise, taken from its list or made when the
// list is empty. A large buffer taken from the list but too small for n is
// dropped, and a new large buffer is made in whole 64 KiB steps, so payloads
// a few bytes apart share buffers. Hand it back with Return.
func Borrow(n int) []byte {
	if n <= spareMin {
		if b := smalls.Get(); b != nil {
			return b
		}
		return make([]byte, 0, spareMin)
	}
	if b := larges.Get(); cap(b) >= n {
		return b
	}
	return make([]byte, 0, (n+spareMin-1)/spareMin*spareMin)
}

// Return hands b, borrowed (and perhaps grown) from Borrow or a Reader, back
// to the list its size belongs to; one of neither size is dropped. The
// caller must not touch b afterwards: another frame may be in it.
func Return(b []byte) {
	switch {
	case cap(b) == spareMin:
		smalls.Put(b)
	case cap(b) > spareMin:
		larges.Put(b)
	}
}

// Reader decodes frames from a stream. The payload and trailer slices
// returned by Next alias buffers borrowed for the frame, which the following
// Next, NextOwned or Release hands back for another connection to read
// into, so a view kept past that call corrupts someone else's frame.
type Reader struct {
	R   io.Reader
	Lim Limits
	// Keep is the largest body Release lists for another frame, 0 for any.
	// A receiver that knows its largest legitimate frame sets it, so a body
	// it refuses for its size is dropped, not held by the large list.
	Keep int

	hdr              [HeaderSize]byte
	payload, trailer []byte // the current frame's borrowed bodies
}

// Next reads one frame. On any validation or transport error the reader is
// poisoned for the connection (framing has no resync point, by design).
func (r *Reader) Next() (h Header, payload, trailer []byte, err error) {
	if h, err = r.header(); err != nil {
		return h, nil, nil, err
	}
	if r.payload, err = readBody(r.R, int(h.PayloadLen)); err == nil {
		r.trailer, err = readBody(r.R, int(h.TrailerLen))
	}
	if err != nil {
		r.Release()
		return h, nil, nil, err
	}
	return h, r.payload, r.trailer, nil
}

// NextOwned reads one frame like Next, except that a raw payload goes
// straight from the stream into a fresh []float64 the caller owns, with no
// copy through a buffer; vals is nil when the frame has no payload, and a
// payload in any other codec fails closed. Up to hint weights are allocated
// up front (a caller passes the model size it expects); beyond that the
// slice grows only as bytes arrive, as in readGrow, so a hostile length
// claim on a truncated stream still cannot allocate its stated size. The
// trailer is borrowed, as in Next.
func (r *Reader) NextOwned(hint int) (h Header, vals []float64, trailer []byte, err error) {
	if h, err = r.header(); err != nil {
		return h, nil, nil, err
	}
	switch {
	case h.Codec == CodecRaw:
		vals, err = r.readRaw(int(h.PayloadLen)/8, hint)
	case h.PayloadLen != 0:
		err = fmt.Errorf("%w: kind %d codec %d where a raw payload was expected", ErrFrame, h.Kind, h.Codec)
	}
	if err == nil {
		r.trailer, err = readBody(r.R, int(h.TrailerLen))
	}
	if err != nil {
		r.Release()
		return h, nil, nil, err
	}
	return h, vals, r.trailer, nil
}

// header hands the previous frame's buffers back, then reads and validates
// one frame header.
func (r *Reader) header() (Header, error) {
	r.Release()
	if _, err := io.ReadFull(r.R, r.hdr[:]); err != nil {
		return Header{}, err
	}
	return ParseHeader(r.hdr[:], r.Lim)
}

// Release hands the current frame's buffers back; the views Next returned
// for it are invalid afterwards. The next Next or NextOwned calls it first,
// so a caller calls it itself only to let the buffers go before then.
func (r *Reader) Release() {
	for _, b := range [2][]byte{r.payload, r.trailer} {
		if r.Keep == 0 || cap(b) <= max(r.Keep, spareMin) {
			Return(b)
		}
	}
	r.payload, r.trailer = nil, nil
}

// readBody reads an n-byte frame body into a borrowed buffer: a small one
// for n of at most 64 KiB, otherwise a large spare, or none, that readGrow
// grows as bytes arrive. A borrowed buffer only saves allocations: a hostile
// length claim still cannot allocate its stated size up front. An empty body
// borrows nothing.
func readBody(r io.Reader, n int) ([]byte, error) {
	switch {
	case n == 0:
		return nil, nil
	case n <= spareMin:
		return readGrow(r, Borrow(n), n)
	default:
		return readGrow(r, larges.Get(), n)
	}
}

// readRaw reads n raw weights into a new slice, allocating min(n, hint) of
// them up front and growing past that geometrically as bytes arrive.
func (r *Reader) readRaw(n, hint int) ([]float64, error) {
	const chunk = 8 << 10 // weights: readGrow's 64 KiB step
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
		if err := ReadRaw(r.R, vals[start:]); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// ReadRaw fills dst with len(dst) raw-codec values read from r: straight
// into dst's storage where the host allows a byte view of it, through a
// small buffer and ParseRaw elsewhere.
func ReadRaw(r io.Reader, dst []float64) error {
	if b, ok := BytesView(dst); ok {
		_, err := io.ReadFull(r, b)
		return err
	}
	var buf [512]byte
	for len(dst) > 0 {
		n := min(len(dst), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return err
		}
		_, _ = ParseRaw(buf[:8*n], dst[:0]) // decodes into dst[:n]; 8n bytes cannot fail
		dst = dst[n:]
	}
	return nil
}

// readGrow reads exactly n bytes into buf, reusing its capacity and growing
// geometrically as bytes actually arrive: a hostile length prefix on a
// truncated stream allocates at most ~2× the bytes received, never the
// claimed n up front.
func readGrow(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		start := len(buf)
		step := min(n-start, start+spareMin)
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

// Writer encodes frames onto a stream, with at most three Write calls per
// frame (header, payload, trailer) so raw float64 payloads go out as
// zero-copy views on little-endian hosts. A payload that must be encoded
// goes through a buffer borrowed for the one frame. Between Begin and End, W
// is a writer borrowed for the frame, which gathers those Writes.
type Writer struct {
	W   io.Writer
	Lim Limits

	hdr [HeaderSize]byte
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
	return w.writeEncoded(h, AppendRaw(Borrow(8*len(vals)), vals), trailer)
}

// WriteQuantFrame emits one frame whose payload is an int8 quantization in
// the quant codec (AppendQuant).
func (w *Writer) WriteQuantFrame(h *Header, min, scale float64, data []uint8, trailer []byte) error {
	h.Codec = CodecQuant
	return w.writeEncoded(h, AppendQuant(Borrow(QuantSize(len(data))), min, scale, data), trailer)
}

// WriteSparseFrame emits one frame whose payload is a top-k delta in the
// sparse codec (AppendSparse).
func (w *Writer) WriteSparseFrame(h *Header, denseLen int, idx []uint32, vals []float64, trailer []byte) error {
	h.Codec = CodecSparse
	return w.writeEncoded(h, AppendSparse(Borrow(SparseSize(len(idx))), denseLen, idx, vals), trailer)
}

// writeEncoded writes a frame whose payload p was encoded into a borrowed
// buffer, then hands the buffer back.
func (w *Writer) writeEncoded(h *Header, p, trailer []byte) error {
	err := w.WriteFrame(h, p, trailer)
	Return(p)
	return err
}

// writers lists the spareMin-byte bufio.Writers Begin lends to frames, at
// most ListDepth of them, the way a Spares list does buffers.
var writers struct {
	sync.Mutex
	free []*bufio.Writer
}

// Begin points w at a spareMin-byte bufio.Writer onto conn, borrowed for the
// next frame alone; End flushes it once and hands it back. So a frame goes
// out in the Write calls a connection's own 64 KiB bufio.Writer, flushed
// once per frame, made: one for a frame of at most 64 KiB; for a larger one,
// the header with the payload's head, the payload's rest, then the trailer.
func (w *Writer) Begin(conn io.Writer) {
	var bw *bufio.Writer
	writers.Lock()
	if n := len(writers.free); n > 0 {
		bw = writers.free[n-1]
		writers.free[n-1] = nil
		writers.free = writers.free[:n-1]
	}
	writers.Unlock()
	if bw == nil {
		bw = bufio.NewWriterSize(conn, spareMin)
	} else {
		bw.Reset(conn)
	}
	w.W = bw
}

// End finishes the frame begun last: it flushes the frame unless err, the
// error writing it, is set, and hands the borrowed writer back. It returns
// the first error.
func (w *Writer) End(err error) error {
	bw := w.W.(*bufio.Writer)
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil) // no hold on the connection while the writer is listed
	w.W = nil
	writers.Lock()
	if len(writers.free) < ListDepth {
		writers.free = append(writers.free, bw)
	}
	writers.Unlock()
	return err
}
