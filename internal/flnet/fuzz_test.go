package flnet

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"ecofl/internal/fl/robust"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/obs"
)

// FuzzRequestDecode throws arbitrary byte streams at the server-side request
// path exactly as a connection delivers them: bytes → wire.Reader → the
// frame decoder → the push gate (including the seq-dedup window) and
// telemetry ingest, which must not panic and must hold their invariants —
// duplicate sequence numbers are never re-applied, the seq high-water mark
// never moves backwards, the model version advances exactly once per accepted
// push, and no value in the model is ever non-finite — no matter what kinds,
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
	f.Fuzz(func(t *testing.T, raw []byte) {
		// A bare in-package server: the push gate and telemetry ingest never
		// touch the listener or the connection set.
		s := &Server{
			Alpha: 0.5, StalenessExp: 1,
			fleet:    newFleet(),
			weights:  []float64{0, 0},
			lastSeq:  make(map[int]uint64),
			lastAck:  make(map[int]reply),
			normGate: robust.NewNormTracker(8, 4, 6),
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
			if req.Kind == wire.KindPush {
				prev := s.lastSeq[req.ClientID]
				_, applied := s.applyPushLocked(req)
				if applied && req.Seq > 0 && req.Seq <= prev {
					t.Fatalf("duplicate seq %d (high-water %d) was re-applied", req.Seq, prev)
				}
				if s.lastSeq[req.ClientID] < prev {
					t.Fatalf("seq high-water mark moved backwards: %d -> %d", prev, s.lastSeq[req.ClientID])
				}
			}
			if req.Telemetry != nil {
				s.fleet.ingest(req.Telemetry)
				s.fleet.observePush(req.ClientID)
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
