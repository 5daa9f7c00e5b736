package flnet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
)

// The reference model of the server's per-client state: what one session
// must do, written as plainly as possible and with none of the server's
// arithmetic — no weights, no mixing, no norms. TestSessionModel drives it
// beside the real server and demands they agree after every step. It is the
// specification the session table (lease.go, applyPushLocked) implements;
// when the two disagree, decide which one is wrong before changing either.

type outcome string

const (
	applied     outcome = "applied"
	deduped     outcome = "deduped"
	quarantined outcome = "quarantined"
	resync      outcome = "rejected-resync" // leaseExpired or sparseBaseMismatch: the client re-syncs
	badShape    outcome = "rejected-shape"
)

// payload is what the model needs to know about a push's contents.
type payload int

const (
	dense       payload = iota // raw or int8, well-formed, ordinary displacement
	sparse                     // top-k overlay; base is the version it was built on
	nonFinite                  // carries a NaN
	normOutlier                // well-formed, displacement far outside the accepted norms
	wrongLength                // not the model's shape
)

const (
	modelClients = 4
	modelDim     = 8
	modelTTL     = time.Hour // on the injected clock; the wall-clock background reaper (TTL/4) never fires
	gateWarmup   = 4         // accepted pushes before the norm gate arms
)

type refSession struct {
	seq     uint64 // highest acked push Seq
	acked   bool   // the server holds the reply it sent for seq
	ackVer  int    // that reply's model version: the only valid sparse base
	leased  bool   // a lease was granted since the server (re)started
	expired bool
	expires time.Time
}

type refServer struct {
	ttl      time.Duration // 0: leases off
	normGate bool
	now      time.Time
	version  int // == pushes applied, ever: exactly-once is this number matching the server's
	warm     int // pushes applied since the last (re)start: the norm gate arms at gateWarmup
	sess     map[int]*refSession
}

func (m *refServer) lapsed(rs *refSession) bool {
	return rs.leased && !rs.expired && m.now.After(rs.expires)
}

// expire is the one way an ack goes away short of a restart.
func (m *refServer) expire(rs *refSession) { rs.expired, rs.acked = true, false }

// contact is one request of any kind reaching the server. It reports whether
// a push making this contact is turned away to re-sync.
func (m *refServer) contact(id int, push bool) (rs *refSession, rejected bool) {
	rs = m.sess[id]
	if rs == nil && (push || m.ttl > 0) {
		rs = &refSession{}
		m.sess[id] = rs
	}
	if m.ttl == 0 {
		return rs, false
	}
	if m.lapsed(rs) {
		m.expire(rs)
	}
	rejected = rs.expired && push
	rs.leased, rs.expired, rs.expires = true, false, m.now.Add(m.ttl)
	return rs, rejected
}

// push returns the outcome and the model version the reply must carry.
func (m *refServer) push(id int, seq uint64, p payload, base int) (outcome, int) {
	rs, rejected := m.contact(id, true)
	switch {
	case rejected:
		return resync, 0
	case seq <= rs.seq:
		if seq == rs.seq && rs.acked {
			return deduped, rs.ackVer
		}
		return deduped, m.version
	case p == wrongLength:
		return badShape, 0
	case p == sparse && !(rs.acked && rs.ackVer == base):
		return resync, 0
	}
	out := applied
	if p == nonFinite || (p == normOutlier && m.normGate && m.warm >= gateWarmup) {
		out = quarantined // acked like any other push, never mixed
	} else {
		m.version++
		m.warm++
	}
	rs.seq, rs.acked, rs.ackVer = seq, true, m.version
	return out, m.version
}

func (m *refServer) reap() (n int) {
	for _, rs := range m.sess {
		if m.lapsed(rs) {
			m.expire(rs)
			n++
		}
	}
	return n
}

// restart is a crash and a resume from a checkpoint: only the dedup
// high-water marks survive.
func (m *refServer) restart() {
	m.warm = 0
	for id, rs := range m.sess {
		if rs.seq == 0 {
			delete(m.sess, id)
		} else {
			*rs = refSession{seq: rs.seq}
		}
	}
}

func (m *refServer) members() []int {
	ids := []int{}
	for id, rs := range m.sess {
		if rs.leased && !rs.expired {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// modelHarness pairs one real server with the reference model and plays the
// part of the clients: it builds the actual payloads and remembers, as a
// Client does, the last reply each client was acked with (its sparse base).
type modelHarness struct {
	t    *testing.T
	rng  *rand.Rand
	lc   *leaseClock
	opts ServerOptions
	s    *Server
	m    *refServer

	nextSeq [modelClients]uint64
	last    [modelClients]struct { // the most recent push, for retries
		seq uint64
		p   payload
	}
	base [modelClients]reply // noteAck: the reply to the last acknowledged push
	log  []string
	seen map[outcome]int // how often each outcome occurred, so the test can tell it is not vacuous
}

func (h *modelHarness) start(resume *Checkpoint) {
	opts := h.opts
	opts.Resume = resume
	h.s = openServer(h.t, make([]float64, modelDim), opts)
}

func (h *modelHarness) failf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s\nops:\n  %s", fmt.Sprintf(format, args...), strings.Join(h.log, "\n  "))
}

// step is a per-coordinate displacement of magnitude 0.7–0.8 × scale and
// random sign: every ordinary push then moves the model by nearly the same
// L2 distance, well inside the norm gate's 2·median floor whatever a codec
// rounds it to, so the model can predict the gate without redoing its
// statistics.
func (h *modelHarness) step(scale float64) float64 {
	d := (0.7 + 0.1*h.rng.Float64()) * scale
	if h.rng.Intn(2) == 0 {
		return -d
	}
	return d
}

// request builds a real push for the payload class. Dense updates displace
// the current model; a sparse one displaces the client's own base at two
// coordinates by the same total norm.
func (h *modelHarness) request(id int, seq uint64, p payload, quant bool) *request {
	cur, ver := h.s.Snapshot()
	req := &request{Kind: wire.KindPush, ClientID: id, Seq: seq, NumSamples: 1,
		BaseVersion: max(0, ver-h.rng.Intn(3))} // a little staleness
	switch p {
	case sparse:
		ref := h.base[id]
		if ref.Weights == nil {
			ref.Weights = make([]float64, modelDim)
		}
		req.BaseVersion, req.DenseLen = ref.Version, modelDim
		i := uint32(h.rng.Intn(modelDim - 1))
		req.SparseIdx = []uint32{i, i + 1}
		req.SparseVals = []float64{ref.Weights[i] + h.step(2), ref.Weights[i+1] + h.step(2)}
	case wrongLength:
		req.Weights = make([]float64, modelDim+1)
	default:
		for i := range cur {
			cur[i] += h.step(1)
		}
		switch p {
		case nonFinite:
			cur[h.rng.Intn(modelDim)] = math.NaN()
		case normOutlier:
			cur[h.rng.Intn(modelDim)] += 1e6
		}
		if quant && p == dense {
			req.Quant = QuantizeInto(cur, &Quantized{})
		} else {
			req.Weights = cur
		}
	}
	return req
}

// push sends one push to both sides and compares outcome and reply.
func (h *modelHarness) push(id int, seq uint64, p payload, quant bool) {
	if p == normOutlier && h.m.normGate && h.m.warm < gateWarmup {
		// Still warming up: an outlier would be accepted and teach the gate
		// that outliers are normal. Real deployments have the same hole; the
		// model does not need it.
		p = dense
	}
	req := h.request(id, seq, p, quant)
	h.last[id].seq, h.last[id].p = seq, p
	pushes, dups, quar := h.s.Pushes(), h.s.Deduped(), h.s.Quarantined()
	rep := h.s.dispatch(req)
	var got outcome
	switch {
	case h.s.Pushes() == pushes+1:
		got = applied
	case h.s.Deduped() == dups+1:
		got = deduped
	case h.s.Quarantined() == quar+1:
		got = quarantined
	case strings.Contains(rep.Err, leaseExpired), strings.Contains(rep.Err, sparseBaseMismatch):
		got = resync
	case rep.Err != "":
		got = badShape
	}
	want, wantVer := h.m.push(id, seq, p, req.BaseVersion)
	h.seen[got]++
	if got != want {
		h.failf("client %d seq %d: server says %q (err %q), model says %q", id, seq, got, rep.Err, want)
	}
	if rep.Err == "" {
		if rep.Version != wantVer {
			h.failf("client %d seq %d %s: reply carries v%d, model says v%d", id, seq, got, rep.Version, wantVer)
		}
		h.base[id] = reply{Weights: append([]float64(nil), rep.Weights...), Version: rep.Version}
	}
}

func (h *modelHarness) fresh(id int, p payload, quant bool) {
	h.nextSeq[id]++
	h.push(id, h.nextSeq[id], p, quant)
}

func (h *modelHarness) advance(d time.Duration) {
	h.lc.Advance(d)
	h.m.now = h.lc.Now()
}

func (h *modelHarness) reap() {
	if got, want := h.s.ReapExpiredLeases(), h.m.reap(); got != want {
		h.failf("ReapExpiredLeases expired %d leases, model says %d", got, want)
	}
}

// opNames labels op's cases in a failure's replay log.
var opNames = [...]string{"raw", "raw", "raw", "int8", "int8", "sparse", "sparse", "sparse",
	"sparse, wrong base", "retry", "retry", "straggler", "pull", "telemetry", "clock +TTL/3",
	"clock past TTL", "clock past TTL, reap", "restart", "NaN or wrong length", "norm outlier"}

// op plays one random operation.
func (h *modelHarness) op() {
	id := h.rng.Intn(modelClients)
	kind := h.rng.Intn(len(opNames))
	h.log = append(h.log, fmt.Sprintf("client %d: %s", id, opNames[kind]))
	switch kind {
	case 0, 1, 2:
		h.fresh(id, dense, false)
	case 3, 4:
		h.fresh(id, dense, true)
	case 5, 6, 7:
		h.fresh(id, sparse, false)
	case 8: // sparse against a base the server never acked this client with
		h.base[id].Version++
		h.fresh(id, sparse, false)
	case 9, 10: // the retry of a push whose reply was lost (or that was rejected)
		if h.last[id].seq == 0 {
			h.fresh(id, dense, false)
		} else {
			h.push(id, h.last[id].seq, h.last[id].p, false)
		}
	case 11: // a straggler from below the dedup window
		if rs := h.m.sess[id]; rs != nil && rs.seq > 1 {
			h.push(id, rs.seq-1, dense, false)
		} else {
			h.fresh(id, dense, false)
		}
	case 12:
		h.s.dispatch(&request{Kind: wire.KindPull, ClientID: id})
		h.m.contact(id, false)
	case 13:
		h.s.dispatch(&request{Kind: wire.KindTelemetry, ClientID: id, Telemetry: &TelemetrySnapshot{}})
		h.m.contact(id, false)
	case 14:
		h.advance(modelTTL / 3)
	case 15: // everyone lapses; whoever makes contact first finds out lazily
		h.advance(modelTTL + time.Second)
	case 16: // everyone lapses and the reaper notices
		h.advance(modelTTL + time.Second)
		h.reap()
	case 17: // crash and resume from a checkpoint
		ck := h.s.Checkpoint()
		h.s.Close()
		h.start(ck)
		h.m.restart()
	case 18:
		h.fresh(id, []payload{nonFinite, wrongLength}[h.rng.Intn(2)], false)
	case 19:
		h.fresh(id, normOutlier, false)
	}
}

// check compares everything observable after a step.
func (h *modelHarness) check() {
	s, m := h.s, h.m
	w, ver := s.Snapshot()
	if s.Pushes() != m.version || ver != m.version {
		h.failf("exactly-once broken: server applied %d pushes at v%d, model applied %d", s.Pushes(), ver, m.version)
	}
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			h.failf("model weight %d is %v", i, v)
		}
	}
	if got, want := s.Members(), m.members(); !reflect.DeepEqual(got, want) || s.SessionCount() != len(want) {
		h.failf("Members %v (SessionCount %d), model says %v", got, s.SessionCount(), want)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) != len(m.sess) {
		h.failf("table holds %d records, model has seen %d clients", len(s.sessions), len(m.sess))
	}
	for id, rs := range m.sess {
		ss := s.sessions[id]
		if ss == nil {
			h.failf("client %d has no session record", id)
		}
		if ss.seq != rs.seq {
			h.failf("client %d high-water seq %d, model says %d", id, ss.seq, rs.seq)
		}
		ackVer := -1
		if ss.ack != nil {
			ackVer = ss.ack.version
		}
		if got := ss.ack != nil; got != rs.acked || (got && ackVer != rs.ackVer) {
			h.failf("client %d ack held=%v at v%d, model says held=%v at v%d", id, got, ackVer, rs.acked, rs.ackVer)
		}
	}
}

// TestSessionModel is the model check: seeded random operation sequences over
// four clients — every codec, retries, stragglers, pulls, telemetry, clock
// jumps with and without the reaper, restarts, poisoned and oversized pushes
// — played against the real server (through dispatch, the front door every
// connection uses) and the reference model at once. Half the seeds arm the
// norm gate; one in four runs without leases.
func TestSessionModel(t *testing.T) {
	seeds, ops := 240, 200
	if testing.Short() {
		seeds = 60
	}
	seen := map[outcome]int{}
	for seed := 0; seed < seeds; seed++ {
		h := &modelHarness{t: t, rng: rand.New(rand.NewSource(int64(seed))), lc: newLeaseClock(), seen: seen}
		h.opts = ServerOptions{Alpha: 0.5, LeaseNow: h.lc.Now,
			NormGate: seed%2 == 1, NormGateWarmup: gateWarmup}
		if seed%4 != 0 {
			h.opts.LeaseTTL = modelTTL
		}
		h.m = &refServer{ttl: h.opts.LeaseTTL, normGate: h.opts.NormGate, now: h.lc.Now(), sess: map[int]*refSession{}}
		h.log = append(h.log, fmt.Sprintf("seed %d (ttl %v, norm gate %v)", seed, h.m.ttl, h.m.normGate))
		h.start(nil)
		for i := 0; i < ops; i++ {
			h.op()
			h.check()
		}
		h.s.Close()
	}
	for _, o := range []outcome{applied, deduped, quarantined, resync, badShape} {
		if seen[o] < seeds {
			t.Errorf("only %d pushes came out %q over %d seeds: the op mix no longer exercises it", seen[o], o, seeds)
		}
	}
	t.Logf("%d seeds × %d ops: %v", seeds, ops, seen)
}
