package flnet

// The transport: both ends speak the length-prefixed frame format of
// internal/flnet/wire and nothing else. A client opens every connection
// with a hello frame and waits for the hello-ack — the version handshake —
// then alternates request and reply frames. Any framing violation fails the
// connection closed (the format has no resync point); a reconnecting portal
// starts over with a fresh hello.
//
// No buffer belongs to a connection, on either end. A frame header is read
// into the wire.Reader's header array; a request body into a buffer borrowed
// from wire's process-wide lists for that frame, and decoded into scratch
// borrowed the same way; both go back before the connection waits for its
// next request. A reply's model is read straight into the slice the client
// returns. Every frame is written through a 64 KiB bufio.Writer borrowed for
// it alone (wire.Writer's Begin and End) and flushed once, in the Write calls
// a connection's own bufio.Writer made. So an idle connection holds its
// header arrays and its session state, and the process about as many
// buffers as it has had frames in flight, up to the depth of wire's lists.
// The server hands the dispatch path zero-copy views where the host allows
// it. The one part of a frame this package does not parse itself is the
// telemetry trailer: JSON, through encoding/json, on bytes the frame header
// has already bounded, and off the hot path by construction.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"ecofl/internal/flnet/wire"
)

// kindName labels a request kind for journal attrs.
func kindName(kind byte) string {
	switch kind {
	case wire.KindPull:
		return "pull"
	case wire.KindPush:
		return "push"
	default:
		return "telemetry"
	}
}

// binClientWire frames requests and replies with no buffer of its own
// between round trips: zero-copy raw payloads on little-endian hosts, and a
// reply read that allocates only the weights slice whose ownership passes
// to the caller, filled from the socket with no copy in between.
type binClientWire struct {
	conn io.Writer // each request's borrowed writer flushes here
	fw   wire.Writer
	fr   wire.Reader
}

func (b *binClientWire) writeRequest(req *request) error {
	h := wire.Header{
		Kind: req.Kind,
		A:    int32(req.ClientID),
		B:    int32(req.NumSamples),
		C:    int32(req.BaseVersion),
		Seq:  req.Seq,
	}
	var trailer []byte
	var err error
	if req.Telemetry != nil {
		// A snapshot that will not encode (the builder already skips what
		// JSON cannot carry) is dropped; the push it rides on still goes.
		if trailer, err = json.Marshal(req.Telemetry); err == nil {
			h.Flags |= wire.FlagTelemetry
		}
	}
	b.fw.Begin(b.conn)
	switch {
	case req.Kind != wire.KindPush:
		err = b.fw.WriteFrame(&h, nil, trailer)
	case req.Weights != nil:
		err = b.fw.WriteRawFrame(&h, req.Weights, trailer)
	case req.Quant != nil:
		err = b.fw.WriteQuantFrame(&h, req.Quant.Min, req.Quant.Scale, req.Quant.Data, trailer)
	case req.SparseIdx != nil || req.DenseLen > 0:
		err = b.fw.WriteSparseFrame(&h, req.DenseLen, req.SparseIdx, req.SparseVals, trailer)
	default:
		err = errNoPayload
	}
	return b.fw.End(err)
}

// readReply reads a reply's model straight into the slice whose ownership
// passes to the caller. hint is the model size the client expects, the most
// the read allocates before the bytes arrive.
func (b *binClientWire) readReply(rep *reply, hint int) error {
	h, weights, trailer, err := b.fr.NextOwned(hint)
	if err != nil {
		return err
	}
	if h.Kind != wire.KindReply {
		return fmt.Errorf("%w: kind %d where a reply was expected", wire.ErrFrame, h.Kind)
	}
	*rep = reply{Weights: weights, Version: int(h.A)}
	if len(trailer) > 0 {
		rep.Err = string(trailer)
	}
	b.fr.Release()
	return nil
}

// newBinClientWire performs the hello/hello-ack handshake on a fresh
// connection and returns its codec. Any failure poisons the connection; the
// caller redials.
func newBinClientWire(conn net.Conn, cc countingConn, id int, timeout time.Duration, lim wire.Limits) (*binClientWire, error) {
	b := &binClientWire{conn: cc, fw: wire.Writer{Lim: lim}, fr: wire.Reader{R: cc, Lim: lim}}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	hello := wire.Header{Kind: wire.KindHello, A: int32(id)}
	b.fw.Begin(b.conn)
	if err := b.fw.End(b.fw.WriteFrame(&hello, nil, nil)); err != nil {
		return nil, err
	}
	h, _, _, err := b.fr.Next()
	if err != nil {
		return nil, err
	}
	if h.Kind != wire.KindHelloAck {
		return nil, fmt.Errorf("%w: kind %d where hello-ack was expected", wire.ErrFrame, h.Kind)
	}
	return b, nil
}

// requestDecoder turns a connection's request frames into requests. It
// reuses one request and quantization header for the connection's lifetime;
// the sparse (or, on big-endian hosts, raw) scratch a payload decodes into is
// borrowed for the frame and handed back by release, so steady-state ingest
// does not allocate and an idle connection holds none.
type requestDecoder struct {
	req   request
	quant Quantized
	idx   []uint32  // sparse indices, borrowed for the frame
	vals  []float64 // sparse values or raw weights, borrowed for the frame
	// dim is the model's length. Scratch larger than it held a payload the
	// server refuses (a sparse k may claim any dense length up to the frame
	// limit), so release drops it rather than list it.
	dim int
}

// decode is the boundary where outside input becomes a request: the payload
// goes through its codec's fail-closed parser, the telemetry trailer through
// encoding/json, and any frame kind a client has no business sending (a
// hello mid-stream, a reply, a checkpoint, a segment) is a protocol
// violation. The returned request aliases the decoder and the frame
// buffers; it is valid until release.
func (d *requestDecoder) decode(h wire.Header, payload, trailer []byte) (*request, error) {
	req := &d.req
	*req = request{
		Kind:        h.Kind,
		ClientID:    int(h.A),
		Seq:         h.Seq,
		NumSamples:  int(h.B),
		BaseVersion: int(h.C),
	}
	var err error
	switch h.Kind {
	case wire.KindPull, wire.KindTelemetry:
	case wire.KindPush:
		switch h.Codec {
		case wire.CodecRaw:
			// The view aliases the frame buffer; safe because the handler
			// finishes dispatch before it releases the frame.
			if v, ok := wire.RawView(payload); ok {
				req.Weights = v
			} else if d.vals, err = wire.ParseRaw(payload, valSpares.Get()); err == nil {
				req.Weights = d.vals
			}
		case wire.CodecQuant:
			if d.quant.Min, d.quant.Scale, d.quant.Data, err = wire.ParseQuant(payload); err == nil {
				req.Quant = &d.quant
			}
		case wire.CodecSparse:
			if req.DenseLen, d.idx, d.vals, err = wire.ParseSparse(payload, idxSpares.Get(), valSpares.Get()); err == nil {
				req.SparseIdx, req.SparseVals = d.idx, d.vals
			}
		}
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: kind %d where a request was expected", wire.ErrFrame, h.Kind)
	}
	if h.Flags&wire.FlagTelemetry != 0 && len(trailer) > 0 {
		var snap TelemetrySnapshot
		if err := json.Unmarshal(trailer, &snap); err != nil {
			return nil, err
		}
		req.Telemetry = &snap
	}
	return req, nil
}

// release hands the frame's scratch back and drops the request's views of
// it and of the frame, which another connection may read into next.
func (d *requestDecoder) release() {
	if cap(d.idx) <= d.dim {
		idxSpares.Put(d.idx)
	}
	if cap(d.vals) <= d.dim {
		valSpares.Put(d.vals)
	}
	*d = requestDecoder{dim: d.dim}
}

// handle serves one portal connection: hello-ack first, then request/reply
// frames until the portal hangs up or violates the framing.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if !s.trackConn(conn) {
		return // server shutting down
	}
	defer s.untrackConn(conn)
	var cc io.ReadWriter = countingConn{Conn: conn, in: srvBytesIn, out: srvBytesOut}
	fr := wire.Reader{R: cc, Lim: wire.Limits{MaxPayload: s.opts.MaxPayload}}
	fw := wire.Writer{Lim: fr.Lim}

	h, _, _, err := fr.Next()
	if err != nil || h.Kind != wire.KindHello {
		if err != io.EOF {
			srvDecodeErrors.Inc()
		}
		return
	}
	srvConnsBinary.Inc()
	conn.SetWriteDeadline(time.Now().Add(DefaultTimeout))
	ack := wire.Header{Kind: wire.KindHelloAck}
	fw.Begin(cc)
	if fw.End(fw.WriteFrame(&ack, nil, nil)) != nil {
		return
	}

	s.mu.Lock()
	dec := requestDecoder{dim: len(s.cur.weights)}
	s.mu.Unlock()
	// A body longer than the model's raw frame is one dispatch refuses, as
	// it refuses the scratch release drops: listed, it would let a portal
	// pin a MaxPayload-sized buffer.
	fr.Keep = 8 * dec.dim
	for {
		h, payload, trailer, err := fr.Next()
		if err != nil {
			if err != io.EOF {
				// Anything but a clean close is a malformed or truncated
				// stream — worth a counter so a misbehaving (or merely
				// version-skewed) portal shows up on the dashboard.
				srvDecodeErrors.Inc()
			}
			return
		}
		t0 := time.Now()
		req, err := dec.decode(h, payload, trailer)
		if err != nil {
			srvDecodeErrors.Inc()
			return
		}
		rep := s.dispatch(req)
		// The request is done with: its frame and scratch go back before the
		// reply borrows its own.
		dec.release()
		fr.Release()
		// Bounds each reply write so a dead portal cannot pin this
		// goroutine mid-send. Reads carry no deadline: portals legitimately
		// go quiet for whole local-training rounds, and Close force-closes
		// every tracked connection anyway.
		conn.SetWriteDeadline(time.Now().Add(DefaultTimeout))
		rh := wire.Header{Kind: wire.KindReply, A: int32(rep.Version)}
		var errTrailer []byte
		if rep.Err != "" {
			errTrailer = []byte(rep.Err)
		}
		fw.Begin(cc)
		if rep.Weights != nil {
			err = fw.WriteRawFrame(&rh, rep.Weights, errTrailer)
		} else {
			err = fw.WriteFrame(&rh, nil, errTrailer)
		}
		if err == nil {
			// Observed before the flush that completes the reply, so a client
			// holding its reply is guaranteed to find the request in the
			// histogram.
			srvRequestSeconds.Observe(time.Since(t0).Seconds())
		}
		err = fw.End(err)
		// Flushed or failed, the model's bytes are no longer needed: the
		// reply's reference goes back.
		s.release(rep.held)
		if err != nil {
			return
		}
	}
}
