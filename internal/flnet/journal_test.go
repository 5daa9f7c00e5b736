package flnet

// Flight-recorder integration: client and server journals record the
// transport's fault-path decisions, client journals piggyback on telemetry
// into the server's fleet journal, and the merged /events timeline is
// causally ordered across nodes. The benchmark guards the push hot path:
// journal nil must cost ~nothing, recording must stay within a few percent.

import (
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
	"ecofl/internal/obs/journal"
)

func journalServer(t *testing.T, init []float64) (*Server, *journal.Fleet) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fj := journal.NewFleet(256, journal.New(-1, 256))
	s, err := NewServerOpts(ln, init, ServerOptions{Alpha: 0.5, Journal: fj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, fj
}

// TestJournalMergedTimeline drives pushes from a journaled client against a
// journaled server and asserts the fleet journal holds both lanes, merged in
// causal order, with correlated seq attrs.
func TestJournalMergedTimeline(t *testing.T) {
	s, fj := journalServer(t, []float64{0, 0, 0})
	cliJ := journal.New(7, 256)
	c, err := DialOptions(s.Addr(), 7, Options{Journal: cliJ})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := c.EnableTelemetry(metrics.NewRegistry(), nil, "portal", 0)
	defer stop()

	v := 0
	for i := 0; i < 3; i++ {
		if _, v, err = c.Push([]float64{1, 2, 3}, 1, v); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot attached to push N is built before N completes, so the
	// ack event of the last push is still local; flush ships the tail.
	if err := c.FlushTelemetry(); err != nil {
		t.Fatal(err)
	}

	if s.Fleet().Journal() != fj {
		t.Fatal("Fleet.Journal accessor does not return the configured fleet journal")
	}
	evs := fj.Events()
	applies, acks := 0, 0
	for _, e := range evs {
		switch e.Kind {
		case "push.apply":
			if e.Node != -1 || e.Client != 7 {
				t.Fatalf("push.apply wrong lanes: %+v", e)
			}
			if e.Attrs["seq"] == "" {
				t.Fatalf("push.apply missing seq correlation: %+v", e)
			}
			applies++
		case "push.ack":
			if e.Node != 7 || e.Client != 7 {
				t.Fatalf("push.ack wrong node: %+v", e)
			}
			acks++
		}
	}
	if applies != 3 {
		t.Fatalf("fleet journal has %d push.apply events, want 3:\n%s", applies, journal.Timeline(evs))
	}
	if acks != 3 {
		t.Fatalf("fleet journal has %d imported push.ack events, want 3:\n%s", acks, journal.Timeline(evs))
	}
	// Causal order: each apply (server clock) precedes its ack's import
	// position only if offsets are sane; at minimum the timeline is sorted.
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("fleet timeline not sorted at %d:\n%s", i, journal.Timeline(evs))
		}
	}
}

// TestJournalDedupDropEvent replays a push Seq and asserts the server lane
// records the dedup decision.
func TestJournalDedupDropEvent(t *testing.T) {
	s, fj := journalServer(t, []float64{0})
	c, err := Dial(s.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := &request{Kind: wire.KindPush, ClientID: 3, Seq: 5, Weights: []float64{10}, NumSamples: 1}
	if _, err := c.roundTrip(req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.roundTrip(&request{Kind: wire.KindPush, ClientID: 3, Seq: 5, Weights: []float64{10}, NumSamples: 1}); err != nil {
		t.Fatal(err)
	}
	var gotApply, gotDrop bool
	for _, e := range fj.Events() {
		switch e.Kind {
		case "push.apply":
			gotApply = true
		case "push.dedup-drop":
			if e.Attrs["seq"] != "5" || e.Client != 3 {
				t.Fatalf("dedup-drop event uncorrelated: %+v", e)
			}
			gotDrop = true
		}
	}
	if !gotApply || !gotDrop {
		t.Fatalf("apply=%v drop=%v, want both:\n%s", gotApply, gotDrop, journal.Timeline(fj.Events()))
	}
}

// TestJournalPushOutcomesCarrySeq: every push outcome on the server lane
// names its push. A push rejected because its lease lapsed records
// push.reject with its seq and the lease error (the client's retry of the
// same seq then applies), and a quarantined push records its seq beside the
// reason.
func TestJournalPushOutcomesCarrySeq(t *testing.T) {
	lc := newLeaseClock()
	jn := journal.NewFleet(256, journal.New(-1, 256))
	s := startLeaseServer(t, []float64{0, 0}, 10*time.Second, lc, jn)
	c, err := Dial(s.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Push([]float64{2, 2}, 1, 0); err != nil { // seq 1: applied
		t.Fatal(err)
	}
	lc.Advance(time.Minute)
	s.ReapExpiredLeases()
	if _, _, err := c.Push([]float64{4, 4}, 1, 1); err != nil { // seq 2: rejected, then applied
		t.Fatal(err)
	}
	if _, _, err := c.Push([]float64{math.NaN(), 0}, 1, 2); err != nil { // seq 3: quarantined
		t.Fatal(err)
	}
	var got []string
	for _, e := range jn.Local().Events() {
		if !strings.HasPrefix(e.Kind, "push.") {
			continue
		}
		if e.Client != 3 {
			t.Fatalf("%s on client %d, want 3", e.Kind, e.Client)
		}
		out := e.Kind + " seq=" + e.Attrs["seq"]
		switch e.Kind {
		case "push.reject":
			if !strings.Contains(e.Attrs["err"], leaseExpired) {
				t.Fatalf("push.reject err %q, want the lease error", e.Attrs["err"])
			}
		case "push.quarantine":
			out += " reason=" + e.Attrs["reason"]
		}
		got = append(got, out)
	}
	want := []string{"push.apply seq=1", "push.reject seq=2", "push.apply seq=2", "push.quarantine seq=3 reason=non-finite"}
	if !slices.Equal(got, want) {
		t.Fatalf("server push events %q, want %q:\n%s", got, want, journal.Timeline(jn.Local().Events()))
	}
}

// TestJournalSparseResyncEvent: the first PushDelta has no reference and
// must fall back dense, recording the resync with its reason.
func TestJournalSparseResyncEvent(t *testing.T) {
	s, _ := journalServer(t, make([]float64, 4))
	cliJ := journal.New(2, 64)
	c, err := DialOptions(s.Addr(), 2, Options{Journal: cliJ})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.PushDelta([]float64{1, 0, 0, 2}, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	var got bool
	for _, e := range cliJ.Events() {
		if e.Kind == "sparse.resync" && e.Attrs["reason"] == "no-ref" {
			got = true
		}
	}
	if !got {
		t.Fatalf("no sparse.resync(no-ref) event:\n%s", journal.Timeline(cliJ.Events()))
	}
}

// TestJournalCheckpointEvents: a checkpoint write and a resumed server both
// land in the server lane.
func TestJournalCheckpointEvents(t *testing.T) {
	s, fj := journalServer(t, []float64{0})
	c, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Push([]float64{4}, 1, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
	path := filepath.Join(t.TempDir(), "srv.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	var wrote bool
	for _, e := range fj.Events() {
		if e.Kind == "checkpoint.write" {
			wrote = true
		}
	}
	if !wrote {
		t.Fatalf("no checkpoint.write event:\n%s", journal.Timeline(fj.Events()))
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fj2 := journal.NewFleet(64, journal.New(-1, 64))
	s2, err := NewServerOpts(ln, []float64{0}, ServerOptions{Alpha: 0.5, Resume: ck, Journal: fj2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var resumed bool
	for _, e := range fj2.Events() {
		if e.Kind == "checkpoint.resume" && e.Round == ck.Version {
			resumed = true
		}
	}
	if !resumed {
		t.Fatalf("no checkpoint.resume event:\n%s", journal.Timeline(fj2.Events()))
	}
	os.Remove(path)
}

// TestPushAllocsFlatWithJournalOff pins the push path with the flight
// recorder off on both ends: no journal attribute is formatted, so a push
// allocates as often at seq 250 as at seq 50. (strconv caches the decimal
// strings of the numbers below 100 only; a formatted seq costs an allocation
// from push 100 on, once on the server and once on the client.) The model is
// a few weights, so no GC cycle empties a pool in between. The least of a few
// windows on each side is compared, so a stray runtime allocation in one
// window (a P growing its timer heap, say) does not count.
func TestPushAllocsFlatWithJournalOff(t *testing.T) {
	s := startServer(t, make([]float64, 4), 0.5)
	c, err := Dial(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, v := []float64{0.25, 0.5, 0.75, 1}, 0
	allocsPerPush := func(pushes int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pushes; i++ {
			if _, v, err = c.Push(w, 1, v); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(pushes)
	}
	// least is the fewest allocations per push over four windows of 20.
	least := func() float64 {
		l := allocsPerPush(20)
		for w := 0; w < 3; w++ {
			l = min(l, allocsPerPush(20))
		}
		return l
	}
	allocsPerPush(19)  // pushes 1–19: connection and pools warm up
	early := least()   // pushes 20–99
	allocsPerPush(100) // pushes 100–199
	late := least()    // pushes 200–279
	if late != early {
		t.Fatalf("pushes 200–279 allocate at least %.2f times each, pushes 20–99 %.2f: something on the push path formats a journal attribute the journal never records", late, early)
	}
}

// TestCodecPushAllocBudget pins what a steady-state push allocates in each
// codec, client and server together, with the journal off: 2 objects, the
// slice the client returns and its reply. The server commits into a
// recycled model and replies by reference, the client reads the reply
// straight into the returned slice, and the encoders' scratch is pooled or
// on the stack. The least of a few windows is compared, so a stray runtime
// allocation in one window does not count.
func TestCodecPushAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const budget = 2
	vecs := make([][]float64, 4)
	for j := range vecs {
		vecs[j] = make([]float64, 64)
		for i := range vecs[j] {
			vecs[j][i] = float64((i*7+j*13)%17) / 8
		}
	}
	for _, codec := range codecPushes {
		t.Run(codec.name, func(t *testing.T) {
			s := startServer(t, make([]float64, 64), 0.5)
			c, err := Dial(s.Addr(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			v := 0
			allocsPerPush := func(pushes int) float64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < pushes; i++ {
					if _, v, err = codec.push(c, vecs[i%len(vecs)], v); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / float64(pushes)
			}
			allocsPerPush(19) // the first push is dense; connection and pools warm up
			least := allocsPerPush(40)
			for w := 0; w < 3; w++ {
				least = min(least, allocsPerPush(40))
			}
			if least > budget {
				t.Fatalf("a steady-state %s push allocates %.2f objects, budget %d", codec.name, least, budget)
			}
		})
	}
}

// TestLargePushAllocBudget holds raw and int8 pushes of a 100 000-weight
// model to TestCodecPushAllocBudget's budget. Their frames are over 64 KiB,
// so the client's int8 encode and the server's read of either payload go
// through buffers borrowed from wire's spare list. Each window starts with
// two GC cycles, which empty a sync.Pool but not the spare list, and then
// counts with the collector off: the runtime allocates about one object of
// its own per cycle (go1.24's unique-map cleanup), and an 800 KB reply per
// push would run a cycle every few pushes.
func TestLargePushAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, budget = 100_000, 2
	vecs := make([][]float64, 4)
	for j := range vecs {
		vecs[j] = make([]float64, n)
		for i := range vecs[j] {
			vecs[j][i] = float64((i*7+j*13)%17) / 8
		}
	}
	for _, codec := range codecPushes {
		if codec.name == "sparse" { // top 4: a small frame
			continue
		}
		t.Run(codec.name, func(t *testing.T) {
			s := startServer(t, make([]float64, n), 0.5)
			c, err := Dial(s.Addr(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			v := 0
			allocsPerPush := func(pushes int) float64 {
				runtime.GC()
				runtime.GC()
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < pushes; i++ {
					if _, v, err = codec.push(c, vecs[i%len(vecs)], v); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / float64(pushes)
			}
			allocsPerPush(19)
			least := allocsPerPush(40)
			for w := 0; w < 3; w++ {
				least = min(least, allocsPerPush(40))
			}
			if least > budget {
				t.Fatalf("a steady-state %d-weight %s push allocates %.2f objects, budget %d", n, codec.name, least, budget)
			}
		})
	}
}

// BenchmarkPushJournal measures the 100k-weight push round trip with the
// flight recorder nil, attached-but-disabled, and recording on both ends —
// the satellite overhead guard: nil must be free, recording <2% (gated via
// the scenario bench capture, mirroring the internal/obs nop-recorder
// proof).
func BenchmarkPushJournal(b *testing.B) {
	const n = 100_000
	run := func(b *testing.B, cliJ *journal.Recorder, srvJ *journal.Fleet) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewServerOpts(ln, make([]float64, n), ServerOptions{Alpha: 0.5, Journal: srvJ})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		c, err := DialOptions(s.Addr(), 0, Options{Journal: cliJ})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(i%7) * 0.25
		}
		v := 0
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, v, err = c.Push(w, 10, v); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(n * 8)
	}
	b.Run("nil", func(b *testing.B) { run(b, nil, nil) })
	b.Run("disabled", func(b *testing.B) {
		cliJ := journal.New(0, journal.DefaultCapacity)
		cliJ.SetDisabled(true)
		srvLocal := journal.New(-1, journal.DefaultCapacity)
		srvLocal.SetDisabled(true)
		run(b, cliJ, journal.NewFleet(journal.DefaultCapacity, srvLocal))
	})
	b.Run("recording", func(b *testing.B) {
		run(b, journal.New(0, journal.DefaultCapacity),
			journal.NewFleet(journal.DefaultCapacity, journal.New(-1, journal.DefaultCapacity)))
	})
}
