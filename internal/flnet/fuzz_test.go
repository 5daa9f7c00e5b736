package flnet

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/obs/journal"
)

// FuzzRequestDecode throws arbitrary byte streams at the server-side request
// path exactly as a connection delivers them: bytes → wire.Reader → the
// frame decoder → dispatch (the lease gate on a clock the input itself
// advances, the seq-dedup window, the push gate) and telemetry ingest, which
// must not panic and must hold their invariants — duplicate sequence numbers
// are never re-applied, the seq high-water mark never moves backwards, the
// model version advances exactly once per accepted push, no value in the
// model is ever non-finite, a client's ack is missing exactly when it never
// had a push acked or its lease expired since, and every event and span the
// fleet journal merged has a finite time and duration — no matter what kinds,
// payloads, metric names, or journal batches the bytes claim to carry. Truncated
// streams (a connection severed mid-frame) must decode cleanly up to the cut
// and reject the rest.
func FuzzRequestDecode(f *testing.F) {
	// seed frames requests with the client's own encoder, which (like the
	// Append* codecs under it) encodes whatever it is handed — hostile
	// payloads included.
	seed := func(reqs ...*request) []byte {
		var buf bytes.Buffer
		cw := &binClientWire{bw: bufio.NewWriter(&buf)}
		cw.fw.W = cw.bw
		for _, req := range reqs {
			if err := cw.writeRequest(req); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	push := func(req request) *request {
		req.Kind, req.NumSamples = wire.KindPush, 1
		return &req
	}
	f.Add(seed(&request{Kind: wire.KindTelemetry, ClientID: 1, Telemetry: &TelemetrySnapshot{
		Proc: "portal", JournalNow: 1.5, Epoch: 9,
		Metrics: []MetricPoint{
			{Family: "ecofl_x_total", Value: 3},
			{Family: "ecofl_step_seconds:count", Labels: []string{"stage", "0"}, Value: 2},
			{Family: "ecofl_step_seconds:sum", Labels: []string{"stage", "0"}, Value: 0.2},
			{Family: "ecofl_step_seconds:p50", Labels: []string{"stage", "0"}, Value: 0.1},
			{Family: "ecofl_step_seconds:p99", Labels: []string{"stage", "0"}, Value: 0.19},
		},
		Journal: []journal.Event{{TS: 0.75, Dur: 0.25, Lane: 1, Seq: 1, Kind: "pipe.fwd"}},
	}}))
	f.Add(seed(&request{Kind: wire.KindTelemetry, ClientID: -7, Telemetry: &TelemetrySnapshot{
		JournalNow: -1e300,
		Metrics:    []MetricPoint{{Family: `bad{family`, Labels: []string{"odd"}}},
	}}))
	f.Add(seed(push(request{Weights: []float64{1, 2}})))
	// Sparse overlays: a well-formed one (rejected only for the missing ack
	// window), and hostile ones wire.ParseSparse must fail — unsorted and
	// out-of-range indices, NaN/Inf values, a dense-length lie, mismatched
	// pair counts.
	f.Add(seed(push(request{ClientID: 1, Seq: 1, DenseLen: 2,
		SparseIdx: []uint32{0}, SparseVals: []float64{1.5}})))
	f.Add(seed(push(request{ClientID: 1, Seq: 1, DenseLen: 2,
		SparseIdx: []uint32{1, 0}, SparseVals: []float64{1, 2}})))
	f.Add(seed(push(request{ClientID: 1, Seq: 1, DenseLen: 2,
		SparseIdx: []uint32{7}, SparseVals: []float64{1}})))
	f.Add(seed(push(request{ClientID: 1, Seq: 1, DenseLen: 2,
		SparseIdx: []uint32{0}, SparseVals: []float64{math.NaN()}})))
	f.Add(seed(push(request{ClientID: 1, Seq: 1, DenseLen: 2,
		SparseIdx: []uint32{0, 1}, SparseVals: []float64{math.Inf(1), 0}})))
	f.Add(seed(push(request{ClientID: 1, Seq: 1, DenseLen: 1 << 30,
		SparseIdx: []uint32{0}, SparseVals: []float64{1}})))
	f.Add(seed(push(request{ClientID: 1, Seq: 1, DenseLen: 2,
		SparseIdx: []uint32{0, 1}, SparseVals: []float64{1}})))
	// Semantic poison: non-finite dense values (the raw codec carries any
	// float64, so the gate's scan is the only check), quantization
	// parameters that are NaN or overflow once dequantized, and an
	// oversized-norm dense update for the adaptive gate.
	f.Add(seed(push(request{ClientID: 4, Seq: 1, Weights: []float64{math.NaN(), 0}})))
	f.Add(seed(push(request{ClientID: 4, Seq: 1, Weights: []float64{math.Inf(-1), 1}})))
	f.Add(seed(push(request{ClientID: 4, Seq: 1,
		Quant: &Quantized{Min: math.NaN(), Scale: 1, Data: []uint8{1, 2}}})))
	f.Add(seed(push(request{ClientID: 4, Seq: 1,
		Quant: &Quantized{Min: 1e308, Scale: 1e306, Data: []uint8{255, 255}}})))
	f.Add(seed(push(request{ClientID: 5, Seq: 1, Weights: []float64{1e30, -1e30}})))
	// The retry wire patterns: the same Seq pushed twice back to back (an ack
	// lost in flight), and a stale straggler Seq after a newer one landed.
	f.Add(seed(
		push(request{ClientID: 2, Seq: 5, Weights: []float64{1, 2}}),
		push(request{ClientID: 2, Seq: 5, Weights: []float64{1, 2}}),
	))
	f.Add(seed(
		push(request{ClientID: 1, Seq: 9, Weights: []float64{3, 4}}),
		push(request{ClientID: 1, Seq: 2, Weights: []float64{8, 8}}),
		&request{Kind: wire.KindPull, ClientID: 1},
	))
	// Connections severed mid-frame: a lone truncated request, and a valid
	// request followed by a truncated one (decode succeeds, then fails).
	whole := seed(push(request{ClientID: 3, Seq: 1, Weights: []float64{5, 6}}))
	f.Add(whole[:len(whole)/2])
	f.Add(append(append([]byte(nil), whole...), whole[:2*len(whole)/3]...))
	f.Add([]byte("\x7fthis is not a frame stream"))
	f.Add([]byte{})
	// A valid request followed by trailing garbage.
	f.Add(append(append([]byte(nil), whole...), "trailing garbage"...))
	// Telemetry trailers, framed by hand so nothing is filtered on the way
	// out: not JSON at all, well-formed, as deep as the trailer limit allows,
	// a literal JSON has no word for, wrong field types, duplicate keys.
	tel := func(trailer string) []byte {
		b := make([]byte, wire.HeaderSize)
		wire.PutHeader(b, &wire.Header{Kind: wire.KindTelemetry, Flags: wire.FlagTelemetry, A: 3, TrailerLen: uint32(len(trailer))})
		return append(b, trailer...)
	}
	f.Add(tel("junk"))
	f.Add(tel(`{"proc":"p","now":1.5,"m":[{"f":"x_total","v":1},{"f":"s:count","l":["stage","0"],"v":2},{"f":"s:sum","l":["stage","0"],"v":0.2},` +
		`{"f":"s:p50","l":["stage","0"],"v":0.1},{"f":"s:p99","l":["stage","0"],"v":0.19}],` +
		`"j":[{"ts":0.75,"dur":0.25,"lane":1,"seq":1,"round":-1,"client":-1,"kind":"pipe.fwd","attrs":{"micro":"1"}},{"ts":1,"node":3,"seq":2,"round":0,"client":3,"kind":"push.ack"}],"jnow":2,"je":7}`))
	f.Add(tel(strings.Repeat("[", 4<<20)))
	f.Add(tel(`{"now":NaN,"m":[{"f":"x","v":Infinity}]}`))
	f.Add(tel(`{"now":"soon","m":{"f":1},"sp":[7],"j":"all of it"}`))
	f.Add(tel(`{"now":1,"now":2,"m":[],"m":[{"f":"dup_total","v":1,"v":2}]}`))
	// Frames that belong in a checkpoint file and on a pipeline link: a
	// protocol violation on a server connection, whatever follows them.
	misplaced := func(kind byte, weights ...float64) []byte {
		var buf bytes.Buffer
		fw := wire.Writer{W: &buf}
		h := &wire.Header{Kind: kind, A: 1, B: 2, Seq: 3}
		var err error
		if weights == nil {
			err = fw.WriteFrame(h, nil, nil)
		} else {
			err = fw.WriteRawFrame(h, weights, nil)
		}
		if err != nil {
			f.Fatal(err)
		}
		return append(buf.Bytes(), whole...)
	}
	f.Add(misplaced(wire.KindCheckpoint, 9, 9))
	f.Add(misplaced(wire.KindSegment, 9, 9))
	f.Add(misplaced(wire.KindTensor, 9, 9))
	f.Add(misplaced(wire.KindHeartbeat))
	// A lease that lapses under an acked client. The trailing bytes are the
	// clock tape (read from the end, one per frame; see below): the client is
	// acked, the clock jumps two TTLs, and its sparse push against the acked
	// base arrives twice — turned away for the lease, then for the base, since
	// expiry took the ack. Once with the reaper noticing first (odd byte),
	// once found lapsed on contact (even).
	away := seed(
		push(request{ClientID: 6, Seq: 1, Weights: []float64{1, 2}}),
		push(request{ClientID: 6, Seq: 2, BaseVersion: 1, DenseLen: 2, SparseIdx: []uint32{1}, SparseVals: []float64{3}}),
		push(request{ClientID: 6, Seq: 2, BaseVersion: 1, DenseLen: 2, SparseIdx: []uint32{1}, SparseVals: []float64{3}}),
	)
	f.Add(append(append([]byte(nil), away...), 0x00, 0xff, 0x00))
	f.Add(append(append([]byte(nil), away...), 0x00, 0xfe, 0x00))
	// Hostile span durations: negative, huge enough to overflow a clock shift
	// that is itself huge, and the ones JSON has no word for or cannot hold.
	f.Add(tel(`{"proc":"p","j":[{"ts":1,"dur":-5,"seq":1,"kind":"a"},{"ts":1e308,"dur":1e308,"seq":2,"kind":"b"}],"jnow":-1e308,"je":3}`))
	f.Add(tel(`{"j":[{"ts":1,"dur":NaN,"seq":1,"kind":"a"}],"jnow":1}`))
	f.Add(tel(`{"j":[{"ts":1,"dur":1e999,"seq":1,"kind":"a"}],"jnow":1}`))
	f.Add(tel(`{"j":[{"ts":-1e308,"dur":1e308,"seq":1,"kind":"a","lane":-7}],"jnow":1e308}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The real server behind its front door, dispatch, with the lease gate
		// armed on an injected clock. Frames are read from the front of the
		// input; the clock is driven from its tail, one byte per frame
		// (steps of TTL/128, so the top half of the byte range jumps past the
		// TTL, and an odd byte also runs the reaper). The hour-long TTL keeps
		// the wall-clock background reaper out of the run.
		const ttl = time.Hour
		lc := newLeaseClock()
		s := openServer(t, []float64{0, 0}, ServerOptions{
			Alpha: 0.5, LeaseTTL: ttl, LeaseNow: lc.Now,
			NormGate: true, NormGateWarmup: 4,
			Journal: journal.NewFleet(64, nil),
		})
		defer s.Close()
		// What the test knows without looking inside the server: when each
		// client's lease lapses, and whether it should be holding an ack — a
		// push stored one and the lease has not lapsed since.
		deadline := map[int]time.Time{}
		acked := map[int]bool{}
		lapse := func(id int, now time.Time) { // the server finds out: reaper or contact
			if d, ok := deadline[id]; ok && now.After(d) {
				acked[id] = false
			}
		}
		fr := wire.Reader{R: bytes.NewReader(raw)}
		var dec requestDecoder
		for n := 0; n < 64; n++ {
			h, payload, trailer, err := fr.Next()
			if err != nil {
				break // malformed or truncated: the server drops the conn
			}
			req, err := dec.decode(h, payload, trailer)
			if err != nil {
				break
			}
			step := raw[len(raw)-1-n%len(raw)]
			lc.Advance(time.Duration(step) * ttl / 128)
			now := lc.Now()
			if step&1 == 1 {
				for id := range deadline {
					lapse(id, now)
				}
				s.ReapExpiredLeases()
			}
			id := req.ClientID
			lapse(id, now)
			deadline[id] = now.Add(ttl)
			prev, pushes := uint64(0), s.Pushes()
			if ss := s.sessions[id]; ss != nil {
				prev = ss.seq
			}
			rep := s.dispatch(req)
			ss := s.sessions[id]
			if ss == nil {
				t.Fatalf("client %d contacted a leased server and has no session", id)
			}
			if req.Kind == wire.KindPush {
				if s.Pushes() != pushes && req.Seq > 0 && req.Seq <= prev {
					t.Fatalf("duplicate seq %d (high-water %d) was re-applied", req.Seq, prev)
				}
				if ss.seq < prev {
					t.Fatalf("seq high-water mark moved backwards: %d -> %d", prev, ss.seq)
				}
				if rep.Err == "" && req.Seq > prev {
					acked[id] = true // applied or quarantined: either way acked
				}
			}
			// An ack goes missing only by lease expiry, and expiry always
			// takes it: ack missing ⇔ the client never had a push acked, or
			// its lease expired since.
			for id, ss := range s.sessions {
				if got := ss.ack != nil; got != acked[id] {
					t.Fatalf("client %d after frame %d: ack held = %v, want %v (lease expired=%v, seq %d)",
						id, n, got, acked[id], ss.expired, ss.seq)
				}
			}
		}
		if s.cur.version != s.pushes {
			t.Fatalf("version %d != accepted pushes %d", s.cur.version, s.pushes)
		}
		// The semantic gate's core invariant: no byte stream, via any codec,
		// leaves a non-finite value in the model.
		for i, v := range s.cur.weights {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("model weight %d is non-finite (%v) after fuzz input", i, v)
			}
		}
		// Nor a non-finite or negative time in the merged timeline.
		for _, e := range s.Fleet().Journal().Events() {
			if math.IsNaN(e.TS) || math.IsInf(e.TS, 0) || math.IsNaN(e.Dur) || math.IsInf(e.Dur, 0) || e.Dur < 0 || e.TS < e.Dur {
				t.Fatalf("merged timeline holds %+v after fuzz input", e)
			}
		}
	})
}

// FuzzCheckpointDecode throws arbitrary files at the checkpoint reader, the
// one parser the server trusts with its whole model: it must not panic, must
// not allocate for a length the file only claims, must never hand back a
// non-finite weight, and whatever it accepts must re-encode to the bytes it
// was read from — one state, one file.
func FuzzCheckpointDecode(f *testing.F) {
	encode := func(ck *Checkpoint) []byte {
		var buf bytes.Buffer
		if err := ck.encode(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := encode(&Checkpoint{Weights: []float64{0.5, -1.25, 3}, Version: 7, Pushes: 9,
		LastSeq: map[int]uint64{-2: 1, 1: 4, 2: 3}})
	f.Add(good)
	f.Add(encode(&Checkpoint{}))
	f.Add(encode(&Checkpoint{Weights: []float64{1, math.NaN()}, Version: 1, Pushes: 1}))
	f.Add(good[:len(good)-7])
	f.Add(append(append([]byte(nil), good...), good...))
	claims := append([]byte(nil), good...) // a header claiming the full 128 MiB and 4 MiB
	wire.PutHeader(claims, &wire.Header{Kind: wire.KindCheckpoint, Codec: wire.CodecRaw, A: 7, Seq: 9,
		PayloadLen: 128 << 20, TrailerLen: 4 << 20})
	f.Add(claims)
	f.Add([]byte("]\x7f\x03\x01\x01\nCheckpoint\x01\xff\x80")) // how a gob checkpoint began
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, file []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := decodeCheckpoint(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		// What arrived, twice over for the grow-as-read buffers, the parsed
		// copy, the marks as a map, and slack for the first 64 KiB chunk a
		// length prefix can ask for before any byte is read.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+16*uint64(len(file)) {
			t.Fatalf("decoding %d bytes allocated %d", len(file), grew)
		}
		if err != nil {
			return
		}
		for i, v := range ck.Weights {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite weight %d: %v", i, v)
			}
		}
		if again := encode(ck); !bytes.Equal(again, file) {
			t.Fatalf("accepted file does not re-encode to itself:\n% x\n% x", file, again)
		}
	})
}

// FuzzQuantizeRoundTrip checks the quantization error bound on arbitrary
// 4-element vectors (runs the seed corpus under plain `go test`; use
// `go test -fuzz=FuzzQuantizeRoundTrip` for continuous fuzzing).
func FuzzQuantizeRoundTrip(f *testing.F) {
	f.Add(0.0, 1.0, -1.0, 2.5)
	f.Add(3.0, 3.0, 3.0, 3.0)
	f.Add(-1e9, 1e9, 0.0, 42.0)
	f.Add(1e-12, -1e-12, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		w := []float64{a, b, c, d}
		for _, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		var q Quantized
		back := QuantizeInto(w, &q).DequantizeInto(make([]float64, len(w)))
		if len(back) != len(w) {
			t.Fatalf("length changed: %d", len(back))
		}
		bound := q.Scale / 2 * (1 + 1e-9)
		for i := range w {
			if diff := math.Abs(w[i] - back[i]); diff > bound+1e-300 {
				t.Fatalf("element %d: error %v exceeds bound %v", i, diff, bound)
			}
		}
	})
}
