package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzFrameDecode throws arbitrary byte streams at the frame reader under
// tight limits: truncated headers, oversized length prefixes, bad magic and
// versions, and hostile payloads must all fail closed — no panic, no
// allocation blow-up — while well-formed frames keep decoding. Whatever a
// push frame's payload claims to be is fed through the matching codec
// parser, which must uphold its own invariants (ascending in-range sparse
// indices, finite values) or reject. A second reader takes the same stream
// through NextOwned, as a client reads its replies: it must keep step with
// Next, refuse exactly the frames whose payload is not raw, and hand back
// what ParseRaw makes of the same payload.
func FuzzFrameDecode(f *testing.F) {
	frame := func(h Header, payload, trailer []byte) []byte {
		var buf bytes.Buffer
		w := Writer{W: &buf}
		if err := w.WriteFrame(&h, payload, trailer); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	raw := AppendRaw(nil, []float64{1, -2.5, 3})
	quant := AppendQuant(nil, -1, 0.5, []uint8{0, 128, 255})
	sparse := AppendSparse(nil, 8, []uint32{1, 6}, []float64{0.5, -4})
	f.Add(frame(Header{Kind: KindHello, A: 3}, nil, nil))
	f.Add(frame(Header{Kind: KindHelloAck}, nil, nil))
	f.Add(frame(Header{Kind: KindPull, A: 1}, nil, nil))
	f.Add(frame(Header{Kind: KindPush, Codec: CodecRaw, A: 1, Seq: 2}, raw, nil))
	f.Add(frame(Header{Kind: KindPush, Codec: CodecQuant, A: 1, Seq: 3}, quant, []byte("trailer")))
	f.Add(frame(Header{Kind: KindPush, Codec: CodecSparse, A: 1, Seq: 4}, sparse, nil))
	f.Add(frame(Header{Kind: KindReply, Codec: CodecRaw, A: 9}, raw, nil))
	f.Add(frame(Header{Kind: KindCheckpoint, Codec: CodecRaw, A: 9, Seq: 9}, raw, make([]byte, 12)))
	f.Add(frame(Header{Kind: KindSegment, Codec: CodecRaw, A: 0, B: 2}, raw, nil))
	f.Add(append(frame(Header{Kind: KindHeartbeat}, nil, nil),
		frame(Header{Kind: KindTensor, Codec: CodecRaw, A: 4, B: 3}, raw, nil)...))
	// Two frames back to back, then the stream severed mid-header.
	two := append(frame(Header{Kind: KindPull}, nil, nil),
		frame(Header{Kind: KindPush, Codec: CodecRaw, Seq: 1}, raw, nil)...)
	f.Add(append(two, Magic[0], Magic[1]))
	// Hostile mutations: bad magic, future version, huge length prefixes,
	// sparse payloads with NaN values and out-of-range indices.
	bad := frame(Header{Kind: KindPush, Codec: CodecRaw, Seq: 1}, raw, nil)
	badMagic := append([]byte(nil), bad...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	badVer := append([]byte(nil), bad...)
	badVer[4] = 200
	f.Add(badVer)
	huge := append([]byte(nil), bad...)
	binary.LittleEndian.PutUint32(huge[28:], math.MaxUint32)
	f.Add(huge)
	nanSparse := AppendSparse(nil, 8, []uint32{2}, []float64{math.NaN()})
	f.Add(frame(Header{Kind: KindPush, Codec: CodecSparse, Seq: 1}, nanSparse, nil))
	oobSparse := AppendSparse(nil, 4, []uint32{9}, []float64{1})
	f.Add(frame(Header{Kind: KindPush, Codec: CodecSparse, Seq: 1}, oobSparse, nil))
	// Semantic poison the transport is allowed to carry (raw floats are not
	// judged at parse time — the server's ingest gate is) plus quant frames
	// whose parameters are non-finite directly or only once dequantized:
	// min + 255·scale overflowing to the edge of the float64 range.
	nanRaw := AppendRaw(nil, []float64{math.NaN(), 1, -2})
	f.Add(frame(Header{Kind: KindPush, Codec: CodecRaw, Seq: 5}, nanRaw, nil))
	infRaw := AppendRaw(nil, []float64{math.Inf(1), 0})
	f.Add(frame(Header{Kind: KindPush, Codec: CodecRaw, Seq: 6}, infRaw, nil))
	hugeRaw := AppendRaw(nil, []float64{1e308, -1e308, 1e308})
	f.Add(frame(Header{Kind: KindPush, Codec: CodecRaw, Seq: 7}, hugeRaw, nil))
	nanQuant := AppendQuant(nil, math.NaN(), 0.5, []uint8{1, 2})
	f.Add(frame(Header{Kind: KindPush, Codec: CodecQuant, Seq: 8}, nanQuant, nil))
	infQuant := AppendQuant(nil, math.Inf(-1), 1, []uint8{0})
	f.Add(frame(Header{Kind: KindPush, Codec: CodecQuant, Seq: 9}, infQuant, nil))
	overflowQuant := AppendQuant(nil, 1e308, 1e306, []uint8{255, 255})
	f.Add(frame(Header{Kind: KindPush, Codec: CodecQuant, Seq: 10}, overflowQuant, nil))
	f.Add([]byte{})
	f.Add([]byte("EFLB"))

	lim := Limits{MaxPayload: 1 << 16, MaxTrailer: 1 << 12}
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := Reader{R: bytes.NewReader(stream), Lim: lim}
		owned := Reader{R: bytes.NewReader(stream), Lim: lim}
		var idxDst []uint32
		var valDst []float64
		var rawDst []float64
		for n := 0; n < 32; n++ {
			h, payload, trailer, err := r.Next()
			oh, vals, otrailer, oerr := owned.NextOwned(n)
			if err != nil {
				if oerr == nil {
					t.Fatalf("NextOwned accepted a frame Next refused (%v): %+v", err, oh)
				}
				return // poisoned stream: the transport drops the connection
			}
			if len(payload) != int(h.PayloadLen) || len(trailer) != int(h.TrailerLen) {
				t.Fatalf("frame body lengths (%d,%d) disagree with header (%d,%d)",
					len(payload), len(trailer), h.PayloadLen, h.TrailerLen)
			}
			if len(payload) > lim.maxPayload() || len(trailer) > lim.maxTrailer() {
				t.Fatal("frame body exceeds limits")
			}
			if (oerr == nil) != (h.Codec == CodecRaw || len(payload) == 0) {
				t.Fatalf("NextOwned on a codec %d frame of %d payload bytes: %v", h.Codec, len(payload), oerr)
			}
			if oerr != nil {
				return
			}
			want, _ := ParseRaw(payload, nil)
			if oh != h || 8*len(vals) != int(oh.PayloadLen) || !bytes.Equal(otrailer, trailer) ||
				!bytes.Equal(AppendRaw(nil, vals), AppendRaw(nil, want)) {
				t.Fatalf("NextOwned read %+v, %d weights, trailer %q; Next %+v, %d weights, trailer %q",
					oh, len(vals), otrailer, h, len(want), trailer)
			}
			if h.Kind != KindPush {
				continue
			}
			switch h.Codec {
			case CodecRaw:
				var err error
				if rawDst, err = ParseRaw(payload, rawDst); err != nil {
					t.Fatalf("raw payload that passed header validation failed to parse: %v", err)
				}
			case CodecQuant:
				if min, scale, _, err := ParseQuant(payload); err == nil {
					if math.IsNaN(min) || math.IsInf(min, 0) || math.IsNaN(scale) || math.IsInf(scale, 0) {
						t.Fatal("non-finite quant parameters accepted")
					}
				}
			case CodecSparse:
				dl, idx, vals, err := ParseSparse(payload, idxDst, valDst)
				idxDst, valDst = idx, vals
				if err != nil {
					continue
				}
				prev := int64(-1)
				for i := range idx {
					if int64(idx[i]) <= prev || int(idx[i]) >= dl {
						t.Fatalf("accepted sparse index %d (prev %d, dense %d)", idx[i], prev, dl)
					}
					prev = int64(idx[i])
					if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
						t.Fatal("accepted non-finite sparse value")
					}
				}
			}
		}
	})
}

// FuzzReaderReuse reads two fuzzed streams of frames of mixed sizes — bodies
// of none, a few bytes, exactly spareMin and above it, some cut short or
// corrupted — through two Readers in turn, so large bodies pass between them
// through the shared spare list. Each frame's views are checked only after
// the other Reader has read its next frame: they must still equal what a
// fresh Reader decoded from the same stream, and a malformed frame must fail
// with the same error at the same place.
//
// The recipe is four bytes per frame: the stream (bit 0) and the payload
// size class (bits 1–2) and a truncation or corruption flag (bits 3–4) in the
// first, the payload length within its class in the second, the trailer
// length in the third (above 127, in KiB), and the fill pattern in the fourth.
func FuzzReaderReuse(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 3, 5, 2, 4, 9, 0, 3, 5, 200, 1, 4, 6, 0, 200, 5, 7, 255, 7, 6})
	f.Add([]byte{4, 1, 0, 1, 5, 2, 0, 2, 6, 0, 0, 3, 7, 0, 0, 4, 4, 3, 130, 5, 5, 255, 255, 6})
	f.Add([]byte{4, 1, 0, 1, 13, 7, 0, 2, 4, 9, 0, 3, 21, 9, 0, 4})
	f.Add([]byte{6, 0, 0, 1, 7, 1, 0, 2, 6, 0, 0, 3, 31, 1, 0, 4, 4, 5, 0, 5})
	f.Fuzz(func(t *testing.T, recipe []byte) {
		var streams [2][]byte
		var done [2]bool
		for i := 0; i+4 <= len(recipe) && i < 4*16; i += 4 {
			b0, b1, b2, fill := recipe[i], int(recipe[i+1]), int(recipe[i+2]), recipe[i+3]
			s := b0 & 1
			if done[s] {
				continue
			}
			var n int
			switch b0 >> 1 & 3 {
			case 1:
				n = 8 * b1
			case 2:
				n = spareMin + 8 + 512*b1
			case 3:
				n = spareMin + 8*(b1%2)
			}
			tn := b2
			if b2 > 127 {
				tn = (b2 - 127) << 10
			}
			payload, trailer := make([]byte, n), make([]byte, tn)
			for j := range payload {
				payload[j] = fill + byte(j*7+i)
			}
			for j := range trailer {
				trailer[j] = fill ^ byte(j+i)
			}
			var buf bytes.Buffer
			w := Writer{W: &buf}
			h := Header{Kind: KindPush, Codec: CodecRaw, A: int32(i), Seq: uint64(fill)}
			if n == 0 {
				h = Header{Kind: KindPull, A: int32(i)}
			}
			if err := w.WriteFrame(&h, payload, trailer); err != nil {
				t.Fatal(err)
			}
			frame := buf.Bytes()
			switch b0 >> 3 & 3 {
			case 1: // cut short inside the body
				frame, done[s] = frame[:HeaderSize+(n+tn)/2], true
			case 2: // corrupted header
				frame[int(fill)%HeaderSize] ^= 0x5a
			}
			streams[s] = append(streams[s], frame...)
		}

		type decoded struct {
			h                Header
			payload, trailer []byte
			err              string
		}
		var want [2][]decoded
		for s := range streams {
			fresh := Reader{R: bytes.NewReader(streams[s])}
			for {
				h, p, tr, err := fresh.Next()
				d := decoded{h: h, payload: bytes.Clone(p), trailer: bytes.Clone(tr)}
				if err != nil {
					d = decoded{err: err.Error()}
				}
				want[s] = append(want[s], d)
				if err != nil {
					break
				}
			}
		}

		readers := [2]*Reader{{R: bytes.NewReader(streams[0])}, {R: bytes.NewReader(streams[1])}}
		var got [2]decoded
		for i := 0; i < max(len(want[0]), len(want[1])); i++ {
			for s, r := range readers {
				if i < len(want[s]) {
					h, p, tr, err := r.Next()
					got[s] = decoded{h: h, payload: p, trailer: tr}
					if err != nil {
						got[s] = decoded{err: err.Error()}
					}
				}
			}
			for s := range readers {
				if i >= len(want[s]) {
					continue
				}
				g, w := got[s], want[s][i]
				if g.err != w.err || g.h != w.h || !bytes.Equal(g.payload, w.payload) || !bytes.Equal(g.trailer, w.trailer) {
					t.Fatalf("stream %d frame %d, checked after the other reader's next frame: %+v, %d payload and %d trailer bytes, error %q; a fresh reader decoded %+v, %d and %d bytes, error %q",
						s, i, g.h, len(g.payload), len(g.trailer), g.err, w.h, len(w.payload), len(w.trailer), w.err)
				}
			}
		}
	})
}
