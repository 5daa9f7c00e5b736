package flnet

import (
	"bufio"
	"bytes"
	"math"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/obs"
)

// FuzzRequestDecode throws arbitrary byte streams at the server-side request
// path exactly as a connection delivers them: bytes → wire.Reader → the
// frame decoder → dispatch (the lease gate on a clock the input itself
// advances, the seq-dedup window, the push gate) and telemetry ingest, which
// must not panic and must hold their invariants — duplicate sequence numbers
// are never re-applied, the seq high-water mark never moves backwards, the
// model version advances exactly once per accepted push, no value in the
// model is ever non-finite, and a client's ack is missing exactly when it
// never had a push acked or its lease expired since — no matter what kinds,
// payloads, metric names, or span batches the bytes claim to carry. Truncated
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
		NodeID: 1, Proc: "portal", NodeNow: 1.5,
		Metrics: []MetricPoint{
			{Family: "ecofl_x_total", Kind: "counter", Value: 3},
			{Family: "ecofl_step_seconds", Labels: []string{"stage", "0"},
				Kind: "histogram", Count: 2, Sum: 0.2, P50: 0.1, P99: 0.19},
		},
		Spans: []obs.Event{{Name: "train", Cat: "portal", Start: 0.5, Dur: 0.25}},
	}}))
	f.Add(seed(&request{Kind: wire.KindTelemetry, ClientID: -7, Telemetry: &TelemetrySnapshot{
		NodeID: -7, NodeNow: math.Inf(1),
		Metrics: []MetricPoint{{Family: `bad{family`, Labels: []string{"odd"}, Kind: "gauge"}},
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
	// A valid request followed by trailing garbage, and one whose telemetry
	// trailer is not gob at all.
	f.Add(append(append([]byte(nil), whole...), "trailing garbage"...))
	junk := make([]byte, wire.HeaderSize)
	wire.PutHeader(junk, &wire.Header{Kind: wire.KindTelemetry, Flags: wire.FlagTelemetry, TrailerLen: 4})
	f.Add(append(junk, "junk"...))
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
				if got := ss.ack.Weights != nil; got != acked[id] {
					t.Fatalf("client %d after frame %d: ack held = %v, want %v (lease expired=%v, seq %d)",
						id, n, got, acked[id], ss.expired, ss.seq)
				}
			}
		}
		if s.version != s.pushes {
			t.Fatalf("version %d != accepted pushes %d", s.version, s.pushes)
		}
		// The semantic gate's core invariant: no byte stream, via any codec,
		// leaves a non-finite value in the model.
		for i, v := range s.weights {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("model weight %d is non-finite (%v) after fuzz input", i, v)
			}
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
		q := Quantize(w)
		back := q.Dequantize()
		if len(back) != len(w) {
			t.Fatalf("length changed: %d", len(back))
		}
		bound := q.MaxError() * (1 + 1e-9)
		for i := range w {
			if diff := math.Abs(w[i] - back[i]); diff > bound+1e-300 {
				t.Fatalf("element %d: error %v exceeds bound %v", i, diff, bound)
			}
		}
	})
}
