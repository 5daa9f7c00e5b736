// Package flnet is the wire protocol between Eco-FL portal nodes and the
// Eco-FL server: a TCP transport over which a portal pulls the current
// global (or group) model and pushes its locally trained update, receiving
// the freshly mixed model in return. It speaks one protocol: the
// length-prefixed binary framing of internal/flnet/wire (raw, quantized or
// top-k sparse payloads), opened by a hello/hello-ack version handshake. The
// server applies the asynchronous aggregation of §5.1 — w ← (1−α)w + α·w_new
// with a staleness-attenuated α — under one mutex each connection's handler
// takes itself, so any number of portals can push concurrently. This is the
// "prototype" transport counterpart of the virtual-time simulator in
// internal/fl.
//
// The transport assumes the network fails: every round trip runs under a
// deadline, the client transparently reconnects with exponential backoff,
// and pushes carry a per-client monotonic sequence number so a retried push
// that already landed is acknowledged from the server's dedup window instead
// of being mixed twice (the FedAsync update is not idempotent, so dedup is a
// correctness requirement, not an optimization). The server checkpoints its
// state to disk and resumes after a crash (checkpoint.go), and the whole
// stack is soak-tested under injected link faults (internal/simnet, the
// chaos tests).
package flnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecofl/internal/fl"
	"ecofl/internal/fl/robust"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/obs/journal"
	"ecofl/internal/tensor"
)

// request is the client→server message. A push carries either raw Weights
// or a Quantized payload (mutually exclusive). Telemetry piggybacks on
// pushes when the client has it enabled, and is the sole payload of a
// standalone telemetry request. Seq is the client's monotonically
// increasing push sequence number (0 on non-push requests): the server acks
// a Seq it has already applied from its dedup window instead of mixing the
// update again.
type request struct {
	Kind        byte // wire.KindPull, wire.KindPush or wire.KindTelemetry
	ClientID    int
	Seq         uint64
	Weights     []float64
	Quant       *Quantized
	NumSamples  int
	BaseVersion int
	Telemetry   *TelemetrySnapshot
	// Sparse-overlay push payload (PR 6): the new values at the strictly
	// ascending indices SparseIdx of a model DenseLen long, relative to the
	// reference model this client was last acked with (BaseVersion must
	// match the ack's version). Mutually exclusive with Weights/Quant.
	// wire.ParseSparse is the one place their contents are validated.
	SparseIdx  []uint32
	SparseVals []float64
	DenseLen   int
}

// reply is the server→client message. On the server, held is the reference
// the reply keeps on the model whose weights it carries, until the handler
// has flushed it; on the client, Weights is the caller's own slice.
type reply struct {
	Weights []float64
	Version int
	Err     string
	held    *model
}

// model is one committed model version, immutable once published: a push
// commits into a recycled or fresh model rather than into the current one,
// so every reply, session ack and sparse base shares the version it names
// instead of copying it. refs counts its holders — the server while it is
// current, each session acked with it, each reply until its flush — and it
// is recycled only when the last of them lets go.
type model struct {
	weights []float64
	version int
	refs    atomic.Int32
}

// spareModels is how many released models the server keeps for its next
// commits to write into; more go to the garbage collector.
const spareModels = 4

// ServerOptions configures fault-tolerance aspects of a Server.
type ServerOptions struct {
	// Alpha is the base mixing weight of the asynchronous aggregation, a
	// finite number in [0, 1].
	Alpha float64
	// Resume restores weights, version, push count and the per-client
	// sequence numbers from a checkpoint (crash recovery).
	Resume *Checkpoint
	// WrapConn, when non-nil, wraps every accepted connection — the hook
	// the chaos tests use to inject faults on the server side of the link
	// (a reply lost after the update was applied is the case that makes
	// push dedup a correctness requirement).
	WrapConn func(net.Conn) net.Conn
	// MaxPayload caps the payload length a frame may claim or a reply may
	// carry, in bytes. 0 means the wire default (128 MiB).
	MaxPayload int
	// Journal, when non-nil, is the server's flight recorder: its local lane
	// (Journal.Local, conventionally node −1) records push
	// applies/dedups/rejects and checkpoint events, and client journals
	// arriving piggybacked on telemetry are merged into it on the server
	// clock — the /events timeline. nil disables at ~0 cost.
	Journal *journal.Fleet
	// LeaseTTL enables lease-based membership: every client contact grants
	// or renews a TTL lease, a background reaper expires lapsed ones
	// (dropping the holder's dedup ack so its next sparse push re-syncs
	// dense), and a push on an expired lease is rejected with a
	// recognizable error the client answers by re-syncing (lease.go). 0
	// disables membership entirely — the pre-lease behaviour.
	LeaseTTL time.Duration
	// LeaseNow, when non-nil, replaces time.Now as the membership clock —
	// deterministic lease tests and virtual-time scenario runs inject their
	// own clock and call ReapExpiredLeases explicitly.
	LeaseNow func() time.Time

	// NormGate arms the adaptive L2 update-norm half of the semantic ingest
	// gate: the server tracks a trailing median+MAD of accepted push delta
	// norms (robust.NormTracker) and quarantines pushes whose displacement
	// is an outlier against it. Finiteness validation is always on — a NaN
	// or Inf can never reach the model regardless of this option.
	NormGate bool
	// NormGateK is the gate's MAD multiplier (threshold = median +
	// K·1.4826·MAD, floored at 2·median). 0 means 6.
	NormGateK float64
	// NormGateWarmup is how many accepted pushes seed the tracker before
	// the gate starts quarantining. 0 means 16.
	NormGateWarmup int
}

// DefaultTimeout is the client's default per-round-trip deadline and the
// server's deadline on each reply write.
const DefaultTimeout = 30 * time.Second

// Server owns the global model and serves pull/push requests.
type Server struct {
	// alpha is the base mixing weight, in [0, 1]; stalenessExp the
	// polynomial staleness attenuation exponent (0 disables attenuation).
	// Both are fixed before the first request is served.
	alpha        float64
	stalenessExp float64

	opts  ServerOptions
	ln    net.Listener
	wg    sync.WaitGroup
	fleet *Fleet

	// connMu guards the open-connection set so Close can sever handlers
	// blocked reading on live-but-idle portals.
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	shutdown bool

	reaperStop chan struct{} // non-nil while the lease reaper runs

	// mu guards the current model and everything the server knows about its
	// clients. Each request kind is one critical section under it: a pull is
	// lease contact → reference the current model; a push is lease contact →
	// dedup window → sparse base → admitLocked → store ack; a telemetry flush
	// is lease contact. No model is copied under it.
	mu      sync.Mutex
	cur     *model
	pushes  int
	deduped int
	// sessions is the one per-client table (lease.go): dedup high-water mark,
	// the ack that is also the sparse base, and the membership lease. live
	// counts the sessions holding an unexpired lease.
	sessions map[int]*session
	live     int
	// Semantic ingest gate state: the adaptive norm tracker (nil unless
	// opts.NormGate) and the count of pushes acked but quarantined.
	normGate    *robust.NormTracker
	quarantined int

	spare chan *model // released models, recycled by the next commits
}

// NewServer creates a server holding the initial global weights and starts
// accepting connections on ln. Close the server to stop.
func NewServer(ln net.Listener, init []float64, alpha float64) *Server {
	s, err := NewServerOpts(ln, init, ServerOptions{Alpha: alpha})
	if err != nil {
		// There is no Resume here, so only an alpha that is not a finite
		// number in [0, 1] fails.
		panic(err)
	}
	return s
}

// NewServerOpts is NewServer with fault-tolerance options. With
// opts.Resume, the server starts from the checkpointed state (weights,
// version, push count, per-client sequence numbers) instead of init; init's
// length must match the checkpointed model. opts.Alpha must be a finite
// number in [0, 1]: any other mixes a finite push into a non-finite model.
func NewServerOpts(ln net.Listener, init []float64, opts ServerOptions) (*Server, error) {
	if !(opts.Alpha >= 0 && opts.Alpha <= 1) {
		return nil, fmt.Errorf("flnet: alpha must be in [0, 1] (got %g)", opts.Alpha)
	}
	if opts.LeaseNow == nil {
		opts.LeaseNow = time.Now
	}
	s := &Server{
		alpha:        opts.Alpha,
		stalenessExp: 1.0,
		opts:         opts,
		ln:           ln,
		fleet:        newFleet(),
		conns:        make(map[net.Conn]struct{}),
		cur:          &model{weights: append([]float64(nil), init...)},
		sessions:     make(map[int]*session),
		spare:        make(chan *model, spareModels),
	}
	s.cur.refs.Store(1)
	s.fleet.journal = opts.Journal
	if opts.NormGate {
		s.normGate = robust.NewNormTracker(0, opts.NormGateWarmup, opts.NormGateK)
	}
	if ck := opts.Resume; ck != nil {
		if len(init) != 0 && len(ck.Weights) != len(init) {
			return nil, fmt.Errorf("flnet: checkpoint has %d weights, model has %d", len(ck.Weights), len(init))
		}
		// Fail closed on a poisoned checkpoint: resuming non-finite weights
		// would re-serve the poison to every client the ingest gate exists
		// to protect.
		if !finite(ck.Weights...) {
			return nil, errors.New("flnet: checkpoint holds a non-finite weight, refusing to resume a poisoned model")
		}
		s.cur.weights = append(s.cur.weights[:0], ck.Weights...)
		s.cur.version = ck.Version
		s.pushes = ck.Pushes
		for id, seq := range ck.LastSeq {
			s.sessions[id] = &session{seq: seq}
		}
		srvCkptResumes.Inc()
		s.jrec().Record("checkpoint.resume", ck.Version, journal.None,
			"pushes", strconv.Itoa(ck.Pushes), "clients", strconv.Itoa(len(ck.LastSeq)))
	}
	if opts.LeaseTTL > 0 {
		interval := opts.LeaseTTL / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		s.reaperStop = make(chan struct{})
		s.wg.Add(1)
		go s.reaperLoop(interval)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address, e.g. to hand to Dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections, severs every open portal connection
// (so handlers blocked reading on idle links exit), waits for all handler
// goroutines, and gives this server's live sessions back to the
// process-global ecofl_flnet_sessions_active gauge.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.connMu.Lock()
	s.shutdown = true
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	if s.reaperStop != nil {
		close(s.reaperStop)
	}
	s.wg.Wait()
	s.mu.Lock()
	srvSessionsActive.Add(-float64(s.live))
	s.mu.Unlock()
	return err
}

// trackConn registers a live connection for shutdown, refusing it when the
// server is already closing (the accept race).
func (s *Server) trackConn(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.shutdown {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Snapshot returns a copy of the current global weights and model version.
// The copy is made after s.mu is released, from a reference taken under it.
func (s *Server) Snapshot() ([]float64, int) {
	s.mu.Lock()
	m := s.cur.hold()
	s.mu.Unlock()
	defer s.release(m)
	return append([]float64(nil), m.weights...), m.version
}

// replyLocked answers with model m — the current one for a pull or a push,
// a session's ack for its dedup replay — by reference: the reply holds m
// until the handler releases it after the flush. Caller holds s.mu.
func (s *Server) replyLocked(m *model) reply {
	return reply{Weights: m.weights, Version: m.version, held: m.hold()}
}

// hold takes a reference to m for its caller. Caller holds s.mu and m is
// the current model or a session's ack, so m is referenced already and
// cannot be recycled under it.
func (m *model) hold() *model {
	m.refs.Add(1)
	return m
}

// release drops one reference to m (nil is no reference); the last one
// recycles it. It needs no lock, so a handler releases its reply's model
// after the flush without waiting on s.mu.
func (s *Server) release(m *model) {
	if m != nil && m.refs.Add(-1) == 0 {
		s.recycle(m)
	}
}

// recycle keeps an unreferenced model for a later commit to write into.
func (s *Server) recycle(m *model) {
	select {
	case s.spare <- m:
	default:
	}
}

// blankModelLocked returns an unreferenced model of the current size for a
// commit to write into: a recycled one, or a fresh one when none is spare.
// Caller holds s.mu.
func (s *Server) blankModelLocked() *model {
	select {
	case m := <-s.spare:
		return m
	default:
		return &model{weights: make([]float64, len(s.cur.weights))}
	}
}

// Fleet returns the server's telemetry aggregator: node-labeled metric
// views, the fleet journal, and the straggler detector.
func (s *Server) Fleet() *Fleet { return s.fleet }

// jrec is the server-lane flight recorder (nil when journaling is off; every
// Record through it is then a nil-check and return).
func (s *Server) jrec() *journal.Recorder { return s.opts.Journal.Local() }

// Pushes returns the number of accepted updates.
func (s *Server) Pushes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushes
}

// Deduped returns how many retried pushes were acked from the dedup window
// instead of being mixed a second time.
func (s *Server) Deduped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deduped
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.opts.WrapConn != nil {
			conn = s.opts.WrapConn(conn)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// dispatch answers one decoded request (requestDecoder.decode admits no
// other kinds).
func (s *Server) dispatch(req *request) reply {
	var rep reply
	switch req.Kind {
	case wire.KindPull:
		srvRequestsPull.Inc()
		s.mu.Lock()
		s.contactLocked(req.ClientID, false)
		rep = s.replyLocked(s.cur)
		s.mu.Unlock()
	case wire.KindPush:
		srvRequestsPush.Inc()
		countPushPayload(req)
		var applied bool
		s.mu.Lock()
		rep, applied = s.applyPushLocked(req)
		s.mu.Unlock()
		if applied {
			s.fleet.observePush(req.ClientID)
		}
	case wire.KindTelemetry:
		srvRequestsTelemetry.Inc()
		if s.opts.LeaseTTL > 0 { // without leases a flush has no business with the model lock
			s.mu.Lock()
			s.contactLocked(req.ClientID, false)
			s.mu.Unlock()
		}
		if req.Telemetry == nil {
			rep.Err = "flnet: telemetry request carries no snapshot"
		}
	}
	if req.Telemetry != nil {
		s.fleet.ingest(req.ClientID, req.Telemetry)
	}
	return rep
}

// applyPushLocked runs one push through its session, all under s.mu (held by
// dispatch, on the pushing connection's handler goroutine): the lease
// contact, which may reject it for re-sync; then dedup — a sequence number at
// or below the client's high-water mark was already applied (the first
// attempt landed but its ack was lost), so the client gets an
// acknowledgement — the stored ack for an exact match, the current model
// for an older straggler — and the model is left untouched; then the
// admission gate against the session's ack as sparse base; then the model
// the reply carries becomes the new ack. applied reports whether the update
// was actually mixed in.
func (s *Server) applyPushLocked(req *request) (rep reply, applied bool) {
	ss, err := s.contactLocked(req.ClientID, true)
	if err != nil {
		// The lease lapsed while the client was away: the contact already
		// re-admitted it, but this push is rejected so the client's retry
		// lands on the fresh lease after a re-sync.
		if jr := s.jrec(); jr != nil {
			jr.Record("push.reject", s.cur.version, req.ClientID, "seq", strconv.FormatUint(req.Seq, 10), "err", journal.ErrText(err))
		}
		return reply{Err: err.Error()}, false
	}
	if req.Seq > 0 && req.Seq <= ss.seq {
		s.deduped++
		srvDedupedPushes.Inc()
		// Every attribute formatted on the push path sits behind the nil
		// check: strconv caches only the numbers below 100, so a push past
		// seq 99 would otherwise allocate for a journal that is off.
		if jr := s.jrec(); jr != nil {
			jr.Record("push.dedup-drop", s.cur.version, req.ClientID, "seq", strconv.FormatUint(req.Seq, 10))
		}
		if req.Seq == ss.seq && ss.ack != nil {
			return s.replyLocked(ss.ack), false
		}
		// Seq predates the window (or the ack was lost to a restart or a
		// lease expiry): ack with the current model, which is at least as
		// fresh.
		return s.replyLocked(s.cur), false
	}
	quarantine, err := s.admitLocked(req, ss.ack)
	if err != nil {
		srvPushErrors.Inc()
		if jr := s.jrec(); jr != nil {
			jr.Record("push.reject", s.cur.version, req.ClientID, "seq", strconv.FormatUint(req.Seq, 10), "err", journal.ErrText(err))
		}
		return reply{Err: err.Error()}, false
	}
	if quarantine != "" {
		// Semantically poisonous but protocol-valid: ack the client with the
		// current model (an honest-but-buggy sender resumes from clean
		// state; a retry dedups) and leave the model untouched. The version
		// and push counters don't move — a quarantined push never happened
		// as far as mixing is concerned.
		s.quarantined++
		if quarantine == "norm" {
			srvQuarNorm.Inc()
		} else {
			srvQuarNonFinite.Inc()
		}
		if jr := s.jrec(); jr != nil {
			jr.Record("push.quarantine", s.cur.version, req.ClientID, "seq", strconv.FormatUint(req.Seq, 10), "reason", quarantine)
		}
	} else if jr := s.jrec(); jr != nil {
		jr.Record("push.apply", s.cur.version, req.ClientID, "seq", strconv.FormatUint(req.Seq, 10))
	}
	if req.Seq > 0 {
		prev := ss.ack
		ss.seq, ss.ack = req.Seq, s.cur.hold()
		s.release(prev)
	}
	return s.replyLocked(s.cur), quarantine == ""
}

// admitLocked is the one gate between a decoded push and training state.
// The wire codecs already validated what a payload says about itself
// (wire.ParseSparse: ascending in-range indices, finite values;
// wire.ParseQuant: finite parameters); this checks it once against the
// model: the shape, the sparse base against ref — the ack the caller holds
// for this client, nil when it holds none — every dense value's finiteness
// (the raw codec is a zero-copy view and validates nothing; a quantized
// range can overflow only once dequantized) and, when the norm gate is
// armed, the L2 displacement against the reference it mixes over. It
// returns an error for a push the protocol rejects, a quarantine reason —
// "non-finite", or "norm" when the armed gate finds the displacement an
// outlier against the trailing accepted-norm distribution — for one it acks
// but must not mix, and otherwise publishes the mixed model as the current
// one. The mix is one kernel pass (tensor.Mix, or tensor.MixU8 dequantizing
// in the same pass) that writes (1−α)·w + α·u into a recycled model and
// checks u's finiteness; a sparse push mixes toward its base and then fixes
// up the pushed indices (tensor.MixAt). The model is dropped again unless
// the gate admits the push. Caller holds s.mu.
func (s *Server) admitLocked(req *request, ref *model) (quarantine string, err error) {
	old := s.cur.weights
	n := len(old)
	switch {
	case req.Weights != nil:
		if len(req.Weights) != n {
			return "", fmt.Errorf("flnet: update has %d weights, model has %d", len(req.Weights), n)
		}
	case req.Quant != nil:
		if len(req.Quant.Data) != n {
			return "", fmt.Errorf("flnet: quantized update has %d weights, model has %d", len(req.Quant.Data), n)
		}
	case req.SparseIdx != nil || req.DenseLen > 0:
		if req.DenseLen != n {
			return "", fmt.Errorf("flnet: sparse update claims %d weights, model has %d", req.DenseLen, n)
		}
		if ref == nil || ref.version != req.BaseVersion {
			srvSparseRejects.Inc()
			have := -1
			if ref != nil {
				have = ref.version
			}
			if jr := s.jrec(); jr != nil {
				jr.Record("sparse.base-mismatch", s.cur.version, req.ClientID,
					"base", strconv.Itoa(req.BaseVersion), "have", strconv.Itoa(have))
			}
			return "", fmt.Errorf("%s: push built on v%d, server ack window holds v%d", sparseBaseMismatch, req.BaseVersion, have)
		}
	default:
		return "", errNoPayload
	}
	alpha := fl.StalenessAlpha(s.alpha, float64(s.cur.version-req.BaseVersion), s.stalenessExp)
	next := s.blankModelLocked()
	w := next.weights
	finite := true
	switch {
	case req.Weights != nil:
		finite = tensor.Mix(w, old, req.Weights, alpha)
	case req.Quant != nil:
		q := req.Quant
		finite = tensor.MixU8(w, old, q.Data, q.Min, q.Scale, alpha)
	default:
		// The overlay: the update is the acked reference with the pushed
		// values (validated finite) at their indices.
		tensor.Mix(w, old, ref.weights, alpha)
		tensor.MixAt(w, old, req.SparseIdx, req.SparseVals, alpha)
	}
	if !finite {
		s.recycle(next)
		return "non-finite", nil
	}
	var norm float64
	if s.normGate != nil {
		norm = displacement(req, old, ref)
		if th, ok := s.normGate.Threshold(); ok && norm > th {
			s.recycle(next)
			return "norm", nil
		}
	}
	next.version = s.cur.version + 1
	next.refs.Store(1)
	s.release(s.cur)
	s.cur = next
	s.pushes++
	if s.normGate != nil {
		s.normGate.Observe(norm)
		if th, ok := s.normGate.Threshold(); ok {
			srvNormGateThreshold.Set(th)
		}
	}
	return "", nil
}

// displacement is the L2 norm of a finite push's update u minus the model it
// mixes over, summed in ascending index order: u − old for a raw or
// quantized push; for a sparse one only the pushed indices, against the
// base ref they overlay.
func displacement(req *request, old []float64, ref *model) float64 {
	var sum float64
	switch {
	case req.Weights != nil:
		for i, v := range req.Weights {
			d := v - old[i]
			sum += d * d
		}
	case req.Quant != nil:
		q := req.Quant
		for i, b := range q.Data {
			v := q.Min + float64(b)*q.Scale
			d := v - old[i]
			sum += d * d
		}
	default:
		for j, i := range req.SparseIdx {
			d := req.SparseVals[j] - ref.weights[i]
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

// Quarantined reports how many pushes were acked but quarantined by the
// semantic ingest gate.
func (s *Server) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// sparseBaseMismatch prefixes the rejection of a sparse push whose
// reference model the server no longer holds (no ack for the client, an ack
// at a different version, or a dedup window lost to a restart). The client
// recognizes it and falls back to a dense push — a re-sync, not an error.
const sparseBaseMismatch = "flnet: sparse base mismatch"

// ErrClosed is returned by round trips on a closed client.
var ErrClosed = errors.New("flnet: client closed")

// Client is a portal-side connection to the Eco-FL server. Round trips run
// under a deadline and transparently reconnect with exponential backoff on
// transport failure; pushes are made idempotent by a per-client sequence
// number (see Options).
type Client struct {
	ID   int
	addr string
	opts Options

	mu   sync.Mutex      // serializes round trips; guards wire, tel, seq, rng and the model sizes
	wire *binClientWire  // per-connection request/reply codec
	tel  *telemetryState // nil until EnableTelemetry
	seq  uint64          // last assigned push sequence number
	rng  *rand.Rand      // backoff jitter stream
	// pushLen and replyLen are the weights in the last model pushed and in
	// the last reply accepted; the larger caps what a reply read allocates
	// before its bytes arrive.
	pushLen, replyLen int

	// scratchMu guards the push-side encode scratch (the reusable
	// quantization buffer and the sparse delta buffers) across concurrent
	// Push* calls; round trips themselves serialize on mu.
	scratchMu sync.Mutex
	qbuf      Quantized
	sparseIdx []uint32
	sparseVal []float64

	// refMu guards the sparse reference: a private copy of the weights this
	// client was last acked with, mirroring the server's dedup-window entry.
	// Maintained only once PushDelta has been used (EnableDeltaRef).
	refMu    sync.Mutex
	trackRef bool
	refW     []float64
	refV     int

	// connMu guards the conn pointer against the Close race so a close
	// can sever an in-flight attempt without waiting for its deadline.
	connMu sync.Mutex
	conn   net.Conn

	closed     atomic.Bool
	closeOnce  sync.Once
	closedCh   chan struct{}
	closeErr   error
	retries    atomic.Int64
	reconnects atomic.Int64
}

// Stats reports how often the client retried a round trip and re-dialed the
// server (both 0 on a healthy link).
func (c *Client) Stats() (retries, reconnects int64) {
	return c.retries.Load(), c.reconnects.Load()
}

// Dial connects a portal to the server with default fault tolerance
// (30s round-trip deadline, 3 retries with exponential backoff).
func Dial(addr string, id int) (*Client, error) {
	return DialOptions(addr, id, Options{})
}

// Close severs the connection and interrupts any backoff wait. It is
// idempotent and safe to race with in-flight round trips or the telemetry
// flusher: once Close starts, no round trip will touch or re-dial the
// connection again.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		close(c.closedCh)
		c.connMu.Lock()
		if c.conn != nil {
			c.closeErr = c.conn.Close()
		}
		c.connMu.Unlock()
	})
	return c.closeErr
}

func (c *Client) roundTrip(req *request) (*reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	switch req.Kind {
	case wire.KindPull:
		cliRequestsPull.Inc()
	case wire.KindTelemetry:
		cliRequestsTelemetry.Inc()
	default:
		cliRequestsPush.Inc()
	}
	// Assign the push sequence number once per logical push, before any
	// retry, so every attempt of the same update carries the same Seq and
	// the server can dedup a retry whose original landed.
	if req.Kind == wire.KindPush && req.Seq == 0 {
		c.seq++
		req.Seq = c.seq
		countClientPushPayload(req)
		_, raw := pushPayloadSize(req)
		c.pushLen = raw / 8
	}
	if c.tel != nil && req.Telemetry == nil && req.Kind != wire.KindPull {
		req.Telemetry = c.telemetrySnapshotLocked()
	}
	t0 := time.Now()
	defer func() { cliRequestSeconds.Observe(time.Since(t0).Seconds()) }()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > c.opts.MaxRetries {
				return nil, fmt.Errorf("flnet: round trip failed after %d attempts: %w", attempt, lastErr)
			}
			c.retries.Add(1)
			cliRetries.Inc()
			if jr := c.opts.Journal; jr != nil {
				jr.Record("net.retry", journal.None, c.ID,
					"attempt", strconv.Itoa(attempt), "kind", kindName(req.Kind), "err", journal.ErrText(lastErr))
			}
			if !c.backoff(attempt) {
				return nil, ErrClosed
			}
			if err := c.reconnectLocked(); err != nil {
				lastErr = err
				continue
			}
		}
		rep, err := c.attemptLocked(req)
		if err == nil {
			if rep.Err != "" {
				// The server answered: an application-level rejection is
				// deterministic and must not be retried.
				return nil, errors.New(rep.Err)
			}
			if rep.Weights != nil {
				c.replyLen = len(rep.Weights)
			}
			if req.Kind == wire.KindPush && rep.Weights != nil {
				c.noteAck(rep)
				if jr := c.opts.Journal; jr != nil {
					jr.Record("push.ack", rep.Version, c.ID, "seq", strconv.FormatUint(req.Seq, 10))
				}
			}
			return rep, nil
		}
		lastErr = err
	}
}

// noteAck mirrors the server's dedup-window entry on the client: the acked
// weights are this client's sparse reference for its next PushDelta. The
// copy is deliberate — the caller owns the returned slice and may mutate
// it, but the reference must stay bit-identical to what the server stored.
func (c *Client) noteAck(rep *reply) {
	c.refMu.Lock()
	defer c.refMu.Unlock()
	if !c.trackRef {
		return
	}
	c.refW = append(c.refW[:0], rep.Weights...)
	c.refV = rep.Version
}

// attemptLocked runs one encode/decode round trip under the deadline.
// The deadline is left armed afterwards, not cleared: every read and write
// on the connection after the handshake happens here, behind a fresh
// deadline, and re-arming moves the connection's timers in place, where
// clearing them would make the next attempt re-add them to a runtime timer
// heap — an allocation on the push path whenever that heap has to grow.
// Caller holds c.mu.
func (c *Client) attemptLocked(req *request) (*reply, error) {
	c.connMu.Lock()
	conn := c.conn
	c.connMu.Unlock()
	if conn == nil || c.closed.Load() {
		return nil, ErrClosed
	}
	if c.opts.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	if err := c.wire.writeRequest(req); err != nil {
		return nil, err
	}
	var rep reply
	if err := c.wire.readReply(&rep, max(c.pushLen, c.replyLen)); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Pull fetches the current global weights and version.
func (c *Client) Pull() ([]float64, int, error) {
	rep, err := c.roundTrip(&request{Kind: wire.KindPull, ClientID: c.ID})
	if err != nil {
		return nil, 0, err
	}
	return rep.Weights, rep.Version, nil
}

// Push submits an update trained from baseVersion and returns the freshly
// mixed global model (saving the portal a second round trip, as the paper's
// portal does when re-entering the next sync-round). A push interrupted by
// a transport failure is retried with the same sequence number, so it is
// applied exactly once even if the original attempt landed and only the
// acknowledgement was lost.
func (c *Client) Push(weights []float64, samples, baseVersion int) ([]float64, int, error) {
	rep, err := c.pushRoundTrip(&request{
		Kind: wire.KindPush, ClientID: c.ID, Weights: weights,
		NumSamples: samples, BaseVersion: baseVersion,
	})
	if err != nil {
		return nil, 0, err
	}
	return rep.Weights, rep.Version, nil
}
