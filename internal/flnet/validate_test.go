package flnet

import (
	"math"
	"net"
	"path/filepath"
	"strings"
	"testing"

	"ecofl/internal/flnet/wire"
)

func assertFinite(t *testing.T, w []float64) {
	t.Helper()
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("model weight %d is non-finite (%v)", i, v)
		}
	}
}

// Poison is stopped where it can first be recognized. What a payload says
// about itself is the wire codecs' to judge — NaN quantization parameters or a
// non-finite sparse value fail the frame and the connection. What only the
// model can judge is the gate's: a raw NaN (the raw codec carries any
// float64) or a quantized range that overflows once dequantized is
// acked-but-quarantined — no error back to the client (an honest-but-buggy
// sender resumes from the snapshot), no model change, no version bump, and a
// retry hits the dedup window exactly like an applied push's retry would.
func TestQuarantineNonFinitePerCodec(t *testing.T) {
	s := startServer(t, []float64{1, 2}, 0.5)
	c, err := DialOptions(s.Addr(), 0, fastOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	push := func(req *request) (*reply, error) {
		req.Kind, req.NumSamples = wire.KindPush, 1
		return c.roundTrip(req)
	}

	for attempt := 0; attempt < 2; attempt++ { // the retry dedups
		rep, err := push(&request{ClientID: 1, Seq: 1, Weights: []float64{math.NaN(), 0}})
		if err != nil {
			t.Fatalf("NaN dense push (attempt %d): %v, want quarantine ack", attempt, err)
		}
		if rep.Version != 0 || rep.Weights[0] != 1 || rep.Weights[1] != 2 {
			t.Fatalf("quarantine ack = %v v%d, want the untouched snapshot", rep.Weights, rep.Version)
		}
	}
	if s.Deduped() != 1 {
		t.Fatalf("quarantined retry: deduped=%d, want 1", s.Deduped())
	}
	if _, err := push(&request{ClientID: 2, Seq: 1,
		Quant: &Quantized{Min: 1e308, Scale: 1e306, Data: []uint8{255, 255}}}); err != nil {
		t.Fatalf("overflowing quant push: %v, want quarantine ack", err)
	}
	if got := s.Quarantined(); got != 2 {
		t.Fatalf("Quarantined() = %d, want 2", got)
	}

	// Wire-level rejections: the frame fails to parse, the server drops the
	// connection, and the client runs out of retries.
	for name, req := range map[string]*request{
		"NaN quant params": {ClientID: 2, Seq: 2,
			Quant: &Quantized{Min: math.NaN(), Scale: 1, Data: []uint8{0, 0}}},
		"Inf sparse value": {ClientID: 3, Seq: 1, DenseLen: 2,
			SparseIdx: []uint32{0}, SparseVals: []float64{math.Inf(1)}},
	} {
		decodeErrs := srvDecodeErrors.Value()
		if _, err := push(req); err == nil {
			t.Fatalf("%s: push was acked", name)
		}
		if srvDecodeErrors.Value() == decodeErrs {
			t.Fatalf("%s: not rejected by the frame parser", name)
		}
	}

	w, v := s.Snapshot()
	if v != 0 || s.Pushes() != 0 || s.Quarantined() != 2 {
		t.Fatalf("poison moved state: v%d pushes %d quarantined %d", v, s.Pushes(), s.Quarantined())
	}
	assertFinite(t, w)

	// The gate is a filter, not a fuse: honest traffic still flows.
	if rep, err := push(&request{ClientID: 4, Seq: 1, Weights: []float64{4, 5}}); err != nil || rep.Version != 1 {
		t.Fatalf("honest push after quarantines: %v", err)
	}
}

// End to end over TCP and the binary wire (whose raw codec deliberately
// carries any float64): the NaN never reaches the model, the client sees a
// normal ack, and the next honest push applies.
func TestNaNPushAckedNotMixed(t *testing.T) {
	s := startServer(t, []float64{1, 2}, 0.5)
	c, err := Dial(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, v, err := c.Push([]float64{math.NaN(), 9}, 3, 0)
	if err != nil {
		t.Fatalf("quarantined push must ack, got error %v", err)
	}
	if v != 0 || w[0] != 1 || w[1] != 2 {
		t.Fatalf("quarantine ack = %v v%d, want untouched v0 model", w, v)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", s.Quarantined())
	}
	w, v, err = c.Push([]float64{3, 4}, 3, v)
	if err != nil || v != 1 {
		t.Fatalf("honest push after quarantine: v%d err %v", v, err)
	}
	assertFinite(t, w)
}

// The adaptive norm gate learns the honest norm distribution, then
// quarantines an outlier while near-typical traffic keeps flowing.
func TestNormGateQuarantinesOutlier(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	init := make([]float64, 8)
	s, err := NewServerOpts(ln, init, ServerOptions{
		Alpha: 0.5, NormGate: true, NormGateWarmup: 4, NormGateK: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w, v, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the tracker with honest pushes of delta norm exactly 0.1.
	for i := 0; i < 6; i++ {
		upd := append([]float64(nil), w...)
		upd[i%len(upd)] += 0.1
		if w, v, err = c.Push(upd, 1, v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Quarantined() != 0 {
		t.Fatalf("honest warm-up tripped the gate %d times", s.Quarantined())
	}
	// Outlier: delta norm ~2800× the trailing median.
	attack := append([]float64(nil), w...)
	for i := range attack {
		attack[i] += 100
	}
	got, gotV, err := c.Push(attack, 1, v)
	if err != nil {
		t.Fatalf("gated push must ack, got error %v", err)
	}
	if gotV != v {
		t.Fatalf("gated push advanced the version: v%d -> v%d", v, gotV)
	}
	for i := range got {
		if got[i] != w[i] {
			t.Fatalf("gated push moved the model at %d: %v -> %v", i, w[i], got[i])
		}
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", s.Quarantined())
	}
	// Near-typical traffic still passes (threshold floor is 2× median).
	upd := append([]float64(nil), got...)
	upd[0] += 0.15
	if _, nv, err := c.Push(upd, 1, gotV); err != nil || nv != gotV+1 {
		t.Fatalf("near-typical push after gate: v%d err %v", nv, err)
	}
}

// A checkpoint holding non-finite weights must fail closed at load and at
// resume — restarting must never re-serve poison the live gate would block.
func TestCheckpointRejectsNonFinite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.ckpt")
	ck := &Checkpoint{Weights: []float64{1, math.NaN(), 3}, Version: 7, Pushes: 7}
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("LoadCheckpoint accepted a poisoned checkpoint: %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	inf := &Checkpoint{Weights: []float64{math.Inf(1), 0, 0}}
	if _, err := NewServerOpts(ln, []float64{0, 0, 0}, ServerOptions{Alpha: 0.5, Resume: inf}); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Resume accepted a poisoned checkpoint: %v", err)
	}
}
