package flnet

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"ecofl/internal/data"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
)

// TestTelemetryFederatesMetricsAndTraces is the fleet-telemetry shape check:
// two portals with telemetry enabled push over real TCP, and afterwards the
// server holds node-labeled views of both portals' metrics, a fleet journal
// with spans under both node lanes, a measured push interval per client, and
// an exported ecofl_straggler gauge.
func TestTelemetryFederatesMetricsAndTraces(t *testing.T) {
	s, _ := journalServer(t, []float64{0, 0})
	for id := 1; id <= 2; id++ {
		reg := metrics.NewRegistry()
		reg.Counter("ecofl_test_rounds_total", "rounds trained").Add(int64(10 * id))
		reg.Histogram("ecofl_test_step_seconds", "step latency",
			[]float64{0.1, 1}).Observe(0.05 * float64(id))

		rec := journal.New(id, 64)
		rec.SpanAt(0.5, 0.75, 0, "portal.train", journal.None, journal.None)

		c, err := DialOptions(s.Addr(), id, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stop := c.EnableTelemetry(reg, rec, "portal", 0)
		_, v, err := c.Pull()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			if _, v, err = c.Push([]float64{1, 1}, 1, v); err != nil {
				t.Fatal(err)
			}
		}
		stop()
		c.Close()
	}

	fleet := s.Fleet()
	for id := 1; id <= 2; id++ {
		name := fmt.Sprintf(`ecofl_test_rounds_total{node="%d"}`, id)
		smp, ok := lookup(fleet.Registry(), name)
		if !ok {
			t.Fatalf("fleet registry missing %s", name)
		}
		if smp.Value != float64(10*id) {
			t.Fatalf("%s = %v, want %d", name, smp.Value, 10*id)
		}
		p50 := fmt.Sprintf(`ecofl_test_step_seconds:p50{node="%d"}`, id)
		if smp, ok = lookup(fleet.Registry(), p50); !ok || smp.Value <= 0 {
			t.Fatalf("fleet registry missing histogram digest %s (%+v)", p50, smp)
		}
	}

	nodes := map[int]bool{}
	for _, e := range fleet.Journal().Events() {
		if e.Kind == "portal.train" && e.Dur == 0.25 {
			nodes[e.Node] = true
		}
	}
	if !nodes[1] || !nodes[2] {
		t.Fatalf("fleet journal spans cover nodes %v, want both nodes 1 and 2", nodes)
	}

	// Two pushes per client = one measured inter-push interval each.
	for id := 1; id <= 2; id++ {
		if lat := fleet.Straggler().MeasuredLatency(id); lat <= 0 {
			t.Fatalf("client %d has no measured latency", id)
		}
		gauge := fmt.Sprintf(`ecofl_straggler{client="%d"}`, id)
		if _, ok := lookup(metrics.Default, gauge); !ok {
			t.Fatalf("%s not exported on the default registry", gauge)
		}
	}
}

// TestTelemetryRejectsHostileMetricNames feeds a snapshot whose label names
// and families would make the registry panic if ingested unchecked.
func TestTelemetryRejectsHostileMetricNames(t *testing.T) {
	f := newFleet()
	f.ingest(1, &TelemetrySnapshot{Metrics: []MetricPoint{
		{Family: `bad{name}`, Value: 1},
		{Family: "odd_labels", Labels: []string{"k"}, Value: 1},
		{Family: "bad_label_key", Labels: []string{`a=b`, "v"}, Value: 1},
		{Family: "node_collision", Labels: []string{"node", "7"}, Value: 1},
		{Family: "ok_metric", Labels: []string{"shard", `hostile "value"`}, Value: 4},
	}})
	if len(f.Registry().Snapshot()) != 1 {
		t.Fatalf("only the valid point should register: %+v", f.Registry().Snapshot())
	}
	if _, ok := lookup(f.Registry(), `ok_metric{node="1",shard="hostile \"value\""}`); !ok {
		t.Fatalf("valid point with hostile label value missing: %+v", f.Registry().Snapshot())
	}
}

// TestTelemetryLaneIsTheFramesClient: a snapshot lands in the fleet views of
// the client whose frame carried it, whatever its body says — the body has no
// field to say it with, and one smuggled into the JSON is ignored.
func TestTelemetryLaneIsTheFramesClient(t *testing.T) {
	s, _ := journalServer(t, []float64{0, 0})
	hdr := make([]byte, wire.HeaderSize)
	trailer := []byte(`{"NodeID":2,"node":2,"proc":"spoof","jnow":1,` +
		`"m":[{"f":"ecofl_fake","v":42}],"j":[{"ts":0.75,"dur":0.25,"node":2,"seq":1,"kind":"portal.train"}]}`)
	wire.PutHeader(hdr, &wire.Header{Kind: wire.KindTelemetry, Flags: wire.FlagTelemetry, A: 1, TrailerLen: uint32(len(trailer))})
	h, err := wire.ParseHeader(hdr, wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var dec requestDecoder
	req, err := dec.decode(h, nil, trailer)
	if err != nil {
		t.Fatal(err)
	}
	if rep := s.dispatch(req); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if smp, ok := lookup(s.Fleet().Registry(), `ecofl_fake{node="1"}`); !ok || smp.Value != 42 {
		t.Fatalf(`ecofl_fake{node="1"} = %+v, %v; want 42 under the frame's client`, smp, ok)
	}
	for _, smp := range s.Fleet().Registry().Snapshot() {
		for i := 0; i+1 < len(smp.Labels); i += 2 {
			if smp.Labels[i] == "node" && smp.Labels[i+1] != "1" {
				t.Fatalf("client 1 wrote a series in another node's lane: %+v", smp)
			}
		}
	}
	spans := 0
	for _, e := range s.Fleet().Journal().Events() {
		if e.Kind == "portal.train" {
			if spans++; e.Node != 1 {
				t.Fatalf("client 1's span landed in lane %d", e.Node)
			}
		}
	}
	if spans != 1 {
		t.Fatalf("fleet journal holds %d of client 1's spans, want 1", spans)
	}
}

// TestTelemetrySkipsNonFinite: JSON cannot carry NaN or Inf, so the snapshot
// builder leaves those points out — and the push the snapshot rides on is
// applied with everything else the registry holds. Journal events arriving
// with a hostile duration are dropped or clamped, not merged.
func TestTelemetrySkipsNonFinite(t *testing.T) {
	s, _ := journalServer(t, []float64{0, 0})
	reg := metrics.NewRegistry()
	reg.Gauge("ecofl_test_poison", "a gauge someone divided by zero into").Set(math.NaN())
	reg.Gauge("ecofl_test_inf", "likewise").Set(math.Inf(1))
	reg.Counter("ecofl_test_rounds_total", "rounds trained").Add(3)

	c, err := DialOptions(s.Addr(), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer c.EnableTelemetry(reg, nil, "portal", 0)()
	if _, v, err := c.Push([]float64{1, 1}, 1, 0); err != nil || v != 1 {
		t.Fatalf("push beside a NaN gauge: version %d, err %v", v, err)
	}
	if s.Pushes() != 1 {
		t.Fatalf("server applied %d pushes, want 1", s.Pushes())
	}
	fleet := s.Fleet().Registry()
	if smp, ok := lookup(fleet, `ecofl_test_rounds_total{node="5"}`); !ok || smp.Value != 3 {
		t.Fatalf("finite counter did not travel: %+v, %v", smp, ok)
	}
	for _, name := range []string{`ecofl_test_poison{node="5"}`, `ecofl_test_inf{node="5"}`} {
		if smp, ok := lookup(fleet, name); ok {
			t.Fatalf("non-finite point travelled: %+v", smp)
		}
	}

	s.Fleet().ingest(6, &TelemetrySnapshot{Epoch: 1, Journal: []journal.Event{
		{TS: 1, Dur: math.NaN(), Seq: 1, Kind: "nan-dur"},
		{TS: 1, Dur: math.Inf(1), Seq: 2, Kind: "inf-dur"},
		{TS: 1, Dur: math.Inf(-1), Seq: 3, Kind: "neg-inf-dur"},
		{TS: 1, Dur: -2, Seq: 4, Kind: "neg-dur"},
	}})
	var kinds []string
	for _, e := range s.Fleet().Journal().Events() {
		if e.Node != 6 {
			continue
		}
		kinds = append(kinds, e.Kind)
		if e.Dur != 0 || math.IsNaN(e.TS) || math.IsInf(e.TS, 0) {
			t.Fatalf("hostile duration merged as %+v", e)
		}
	}
	if len(kinds) != 1 || kinds[0] != "neg-dur" {
		t.Fatalf("merged %v, want only neg-dur, clamped", kinds)
	}
}

// lookup returns the snapshot sample under a full metric name (family plus
// labels).
func lookup(r *metrics.Registry, name string) (metrics.Sample, bool) {
	for _, s := range r.Snapshot() {
		if s.Name == name {
			return s, true
		}
	}
	return metrics.Sample{}, false
}

func TestStragglerDetectorFlagsSlowClient(t *testing.T) {
	reg := metrics.NewRegistry()
	d := NewStragglerDetector(reg, 0.25)
	for i := 0; i < 5; i++ {
		if d.Observe(3, 1.0) {
			t.Fatal("steady client must not be flagged")
		}
	}
	if !d.Observe(3, 2.0) {
		t.Fatal("a 2x slowdown must flag the client")
	}
	if smp, ok := lookup(reg, `ecofl_straggler{client="3"}`); !ok || smp.Value != 1 {
		t.Fatalf("straggler gauge = %+v, want 1", smp)
	}
	var flagged []string
	for _, smp := range reg.Snapshot() {
		if strings.HasPrefix(smp.Name, "ecofl_straggler{") && smp.Value == 1 {
			flagged = append(flagged, smp.Name)
		}
	}
	if len(flagged) != 1 || flagged[0] != `ecofl_straggler{client="3"}` {
		t.Fatalf("flagged %v, want client 3 alone", flagged)
	}
	// Observing right on the smoothed history clears the flag.
	if d.Observe(3, d.MeasuredLatency(3)) {
		t.Fatal("an on-history observation must not be flagged")
	}
	if smp, _ := lookup(reg, `ecofl_straggler{client="3"}`); smp.Value != 0 {
		t.Fatalf("straggler gauge = %v after recovery, want 0", smp.Value)
	}
	// Deviating fast is not straggling.
	for i := 0; i < 5; i++ {
		d.Observe(4, 1.0)
	}
	if d.Observe(4, 0.2) {
		t.Fatal("speeding up must not be flagged as straggling")
	}
	// Garbage in, calm out.
	if d.Observe(-1, 5) || d.Observe(5, -2) {
		t.Fatal("invalid observations must not flag")
	}
	lats := d.MeasuredLatencies()
	if lats[3] <= 0 || lats[4] <= 0 {
		t.Fatalf("measured latencies missing observed clients: %v", lats)
	}
}

// TestMalformedStreamCountsDecodeError sends the server what no portal
// sends — garbage, then, behind a proper hello, the frames that belong in a
// checkpoint file or on a pipeline link, and a telemetry trailer that is not
// JSON — and checks each is a protocol violation: the decode-error counter
// moves, the connection is closed, the model is untouched, and healthy
// clients keep working.
func TestMalformedStreamCountsDecodeError(t *testing.T) {
	s := startServer(t, []float64{1}, 0.5)
	frames := func(write func(fw *wire.Writer)) []byte {
		var buf bytes.Buffer
		fw := wire.Writer{W: &buf}
		fw.WriteFrame(&wire.Header{Kind: wire.KindHello, A: 3}, nil, nil)
		write(&fw)
		return buf.Bytes()
	}
	for name, stream := range map[string][]byte{
		"garbage": []byte("\x7fthis is not a frame stream"),
		"checkpoint frame": frames(func(fw *wire.Writer) {
			fw.WriteRawFrame(&wire.Header{Kind: wire.KindCheckpoint, A: 9, Seq: 9}, []float64{7}, nil)
		}),
		"segment frame": frames(func(fw *wire.Writer) {
			fw.WriteRawFrame(&wire.Header{Kind: wire.KindSegment, A: 0, B: 1}, []float64{7}, nil)
		}),
		"tensor frame": frames(func(fw *wire.Writer) {
			fw.WriteRawFrame(&wire.Header{Kind: wire.KindTensor, A: 0, B: 1}, []float64{7}, nil)
		}),
		"heartbeat": frames(func(fw *wire.Writer) {
			fw.WriteFrame(&wire.Header{Kind: wire.KindHeartbeat}, nil, nil)
		}),
		"trailer that is not JSON": frames(func(fw *wire.Writer) {
			fw.WriteFrame(&wire.Header{Kind: wire.KindTelemetry, Flags: wire.FlagTelemetry, A: 3}, nil, []byte(`{"now":NaN}`))
		}),
	} {
		before := srvDecodeErrors.Value()
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite() // garbage may be shorter than a header
		// The server answers a hello, then hangs up on the violation.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if rest, err := io.ReadAll(conn); err != nil || len(rest) > wire.HeaderSize {
			t.Fatalf("%s: read %d bytes, err %v; want at most a hello-ack and a close", name, len(rest), err)
		}
		conn.Close()
		if srvDecodeErrors.Value() == before {
			t.Fatalf("%s: decode error was not counted", name)
		}
	}
	if w, v := s.Snapshot(); v != 0 || w[0] != 1 || s.Pushes() != 0 {
		t.Fatalf("a protocol violation moved the model: %v v%d", w, v)
	}
	c, err := DialOptions(s.Addr(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Pull(); err != nil {
		t.Fatalf("server must survive a malformed stream: %v", err)
	}
}

// runSequentialFL trains two portals strictly one after the other (so the
// aggregation order is deterministic) and returns the final global weights.
func runSequentialFL(t *testing.T, telemetry bool) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ds := data.MNISTLike(rng, 400)
	shards := data.PartitionByClasses(rng, ds, 2, 2)
	proto := nn.NewMLP(rand.New(rand.NewSource(43)), ds.Dim, 16, ds.NumClasses)
	s := startServer(t, proto.FlatWeights(), 0.5)
	for id := 0; id < 2; id++ {
		c, err := DialOptions(s.Addr(), id, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stop := func() {}
		if telemetry {
			reg := metrics.NewRegistry()
			reg.Counter("ecofl_test_invariance_total", "x").Inc()
			rec := journal.New(id, 64)
			rec.SpanAt(0, 1, 0, "portal.train", journal.None, journal.None)
			// An aggressive flush interval interleaves plenty of telemetry
			// requests between the pushes.
			stop = c.EnableTelemetry(reg, rec, "portal", time.Millisecond)
		}
		local := proto.Clone()
		lrng := rand.New(rand.NewSource(int64(7 + id)))
		w, v, err := c.Pull()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			local.SetFlatWeights(w)
			opt := &nn.SGD{LR: 0.05, Mu: 0.05, Global: w}
			for _, b := range shards[id].Batches(lrng, 16) {
				local.TrainBatch(b.X, b.Y, opt)
			}
			if w, v, err = c.Push(local.FlatWeights(), shards[id].Len(), v); err != nil {
				t.Fatal(err)
			}
		}
		stop()
		c.Close()
	}
	w, _ := s.Snapshot()
	return w
}

// TestTelemetryDoesNotPerturbTraining is the curve-invariance guarantee:
// telemetry reads state but never touches weights, rng, or aggregation
// order, so the final global model is byte-identical with it on or off.
func TestTelemetryDoesNotPerturbTraining(t *testing.T) {
	off := runSequentialFL(t, false)
	on := runSequentialFL(t, true)
	if len(off) != len(on) {
		t.Fatalf("weight lengths differ: %d vs %d", len(off), len(on))
	}
	for i := range off {
		if math.Float64bits(off[i]) != math.Float64bits(on[i]) {
			t.Fatalf("weight %d differs with telemetry on: %v vs %v", i, off[i], on[i])
		}
	}
}

// BenchmarkPushRawWithTelemetry is BenchmarkPushRaw plus an enabled
// telemetry pipeline — the delta between the two is the true piggyback cost
// (snapshot build + the JSON trailer) per push.
func BenchmarkPushRawWithTelemetry(b *testing.B) {
	const n = 100_000
	_, c := benchServer(b, n)
	reg := metrics.NewRegistry()
	reg.Counter("ecofl_bench_rounds_total", "x").Inc()
	reg.Histogram("ecofl_bench_step_seconds", "x", metrics.DefBuckets).Observe(0.01)
	stop := c.EnableTelemetry(reg, journal.New(1, 0), "bench", 0)
	defer stop()
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	v := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		_, v, err = c.Push(w, 10, v)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(n * 8)
}

// BenchmarkTelemetrySnapshot isolates the client-side snapshot build over a
// realistically sized registry.
func BenchmarkTelemetrySnapshot(b *testing.B) {
	reg := metrics.NewRegistry()
	for i := 0; i < 20; i++ {
		reg.Counter(fmt.Sprintf("ecofl_bench_c%d_total", i), "x").Inc()
		reg.Histogram(fmt.Sprintf("ecofl_bench_h%d_seconds", i), "x", metrics.DefBuckets).Observe(0.01)
	}
	c := &Client{ID: 1, tel: &telemetryState{reg: reg, journal: journal.New(1, 0), proc: "bench"}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.mu.Lock()
		snap := c.telemetrySnapshotLocked()
		c.mu.Unlock()
		if len(snap.Metrics) != 100 { // a counter's value, a histogram's four
			b.Fatalf("snapshot has %d points", len(snap.Metrics))
		}
	}
}
