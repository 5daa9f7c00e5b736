package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"ecofl/internal/flnet"
	"ecofl/internal/metrics"
)

const (
	ingestWeights  = 100_000
	ingestVectors  = 4
	fleetSessions  = 64
	fleetTopK      = 1000
	fleetPullEvery = 8
)

// flnetCounts are the public flnet counters the benchmark takes deltas of.
type flnetCounts struct {
	bytesIn, bytesOut, sparseRejects, batches int64
	batchSum                                  float64
}

func readFlnetCounts() flnetCounts {
	batch := metrics.GetHistogram("ecofl_flnet_server_ingest_batch_size", "", nil)
	return flnetCounts{
		bytesIn:       metrics.GetCounter("ecofl_flnet_server_bytes_read_total", "").Value(),
		bytesOut:      metrics.GetCounter("ecofl_flnet_server_bytes_written_total", "").Value(),
		sparseRejects: metrics.GetCounter("ecofl_flnet_server_sparse_rejects_total", "").Value(),
		batches:       batch.Count(),
		batchSum:      batch.Sum(),
	}
}

func (c flnetCounts) plus(o flnetCounts) flnetCounts {
	return flnetCounts{c.bytesIn + o.bytesIn, c.bytesOut + o.bytesOut, c.sparseRejects + o.sparseRejects,
		c.batches + o.batches, c.batchSum + o.batchSum}
}

func (c flnetCounts) minus(o flnetCounts) flnetCounts {
	return flnetCounts{c.bytesIn - o.bytesIn, c.bytesOut - o.bytesOut, c.sparseRejects - o.sparseRejects,
		c.batches - o.batches, c.batchSum - o.batchSum}
}

// flnetLayers fills the flnet per-layer metrics that come from counters: the
// counters' deltas over the traced segment per flnet op (ops of them), and the
// fault-path counts of the whole session (all zero on a healthy loopback).
func flnetLayers(m map[string]float64, seg *segment, ops float64, srv *flnet.Server, clients []*flnet.Client, pushes int) {
	m["flnet.uplink_bytes_per_push"] = float64(seg.flnet.bytesIn) / ops
	m["flnet.downlink_bytes_per_push"] = float64(seg.flnet.bytesOut) / ops
	if seg.flnet.batches > 0 {
		m["flnet.ingest_batch_mean"] = seg.flnet.batchSum / float64(seg.flnet.batches)
	}
	m["flnet.sparse_rejects"] = float64(seg.flnet.sparseRejects)
	m["flnet.gc_cycles_per_kop"] = seg.gcCycles / ops * 1000
	var retries, reconnects int64
	for _, cl := range clients {
		rt, rc := cl.Stats()
		retries += rt
		reconnects += rc
	}
	m["flnet.retries"] = float64(retries)
	m["flnet.reconnects"] = float64(reconnects)
	m["flnet.deduped"] = float64(srv.Deduped())
	m["flnet.quarantined"] = float64(srv.Quarantined())
	m["flnet.applied_share"] = float64(srv.Pushes()) / float64(pushes)
}

// accountPushes is the check that the server accounts for every push
// attempted: applied, quarantined or deduplicated.
func accountPushes(srv *flnet.Server, attempted int) []string {
	got := srv.Pushes() + srv.Quarantined() + srv.Deduped()
	if got == attempted {
		return nil
	}
	return []string{fmt.Sprintf("server accounts for %d pushes (applied %d, quarantined %d, deduped %d), %d attempted",
		got, srv.Pushes(), srv.Quarantined(), srv.Deduped(), attempted)}
}

// ingest is the server-side load: sessions push synthetic 100 000-weight
// updates with no training in the loop, so flnet and flnet/wire do all the
// work. The dense shape is 2 sessions pushing raw; the fleet shape is 64
// leased sessions mixing sparse deltas, quantized pushes and pulls.
type ingest struct {
	fleet   bool
	srv     *flnet.Server
	clients []*flnet.Client
	vecs    [][]float64
	version []int
	// pushes[g] counts generator g's pushes, warm-ups included (pulls are
	// not pushes); summed only after the generators have stopped.
	pushes []int
	heap0  float64 // live heap before the server and sessions existed
}

func setupIngestDense(p params, tr *tracer) (instance, error) { return newIngest(p, tr, false) }
func setupIngestFleet(p params, tr *tracer) (instance, error) { return newIngest(p, tr, true) }

func newIngest(p params, tr *tracer, fleet bool) (instance, error) {
	in := &ingest{fleet: fleet, pushes: make([]int, 2)}
	// Updates cycle through a few pre-generated vectors, so the timed loop
	// does no generator work and every delta against the last ack is dense.
	rng := rand.New(rand.NewSource(p.subseed("ingest/updates")))
	for v := 0; v < ingestVectors; v++ {
		w := make([]float64, ingestWeights)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		in.vecs = append(in.vecs, w)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	so := flnet.ServerOptions{Alpha: 0.5}
	sessions := 2
	if fleet {
		so.LeaseTTL = time.Hour
		sessions = fleetSessions
	}
	if in.srv, err = flnet.NewServerOpts(ln, make([]float64, ingestWeights), so); err != nil {
		ln.Close()
		return nil, err
	}
	in.version = make([]int, sessions)
	if tr != nil {
		in.heap0 = retainedHeap()
	}
	for c := 0; c < sessions; c++ {
		sp := tr.begin("flnet.dial", -1, int64(c))
		cl, err := flnet.DialOptions(in.srv.Addr(), c, flnet.Options{JitterSeed: p.subseed(fmt.Sprintf("ingest/jitter/%d", c))})
		tr.end(sp)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("dial session %d: %w", c, err)
		}
		in.clients = append(in.clients, cl)
		// One warm-up push per session: it seeds the sparse reference, so
		// every timed PushDelta is sparse, and fills the per-conn buffers.
		if err := in.push(c*2/sessions, c, 0, nil, 0); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up session %d: %w", c, err)
		}
	}
	return in, nil
}

// push sends session c's next update by its codec and checks the reply.
func (in *ingest) push(g, c, i int, tr *tracer, id int64) error {
	w := in.vecs[(i+c)%ingestVectors]
	cl := in.clients[c]
	var rep []float64
	var v int
	var err error
	switch {
	case !in.fleet:
		sp := tr.begin("flnet.push_raw", -1, id)
		rep, v, err = cl.Push(w, 10, in.version[c])
		tr.end(sp)
	case c%2 == 0:
		sp := tr.begin("flnet.push_sparse", -1, id)
		rep, v, err = cl.PushDelta(w, 10, in.version[c], fleetTopK)
		tr.end(sp)
	default:
		sp := tr.begin("flnet.push_quant", -1, id)
		rep, v, err = cl.PushQuantized(w, 10, in.version[c])
		tr.end(sp)
	}
	in.pushes[g]++
	if err != nil {
		return err
	}
	if err := checkReply(rep, ingestWeights); err != nil {
		return err
	}
	if v <= in.version[c] {
		return fmt.Errorf("version %d after %d is not monotone", v, in.version[c])
	}
	in.version[c] = v
	return nil
}

func (in *ingest) op(g, i int, tr *tracer) (int, error) {
	// Generator g owns a contiguous half of the sessions; no session is
	// shared between generators. Pushes visit the half round-robin, and so
	// do the fleet's pulls (every fleetPullEvery-th op), on their own count,
	// so every session both writes and reads.
	per := len(in.clients) / 2
	id := tr.opID()
	if !in.fleet {
		if err := in.push(g, g, i, tr, id); err != nil {
			return 0, fmt.Errorf("session %d push: %w", g, err)
		}
		return 1, nil
	}
	pulls := i / fleetPullEvery
	if i%fleetPullEvery == fleetPullEvery-1 {
		c := g*per + pulls%per
		sp := tr.begin("flnet.pull", -1, id)
		rep, v, err := in.clients[c].Pull()
		tr.end(sp)
		if err == nil {
			err = checkReply(rep, ingestWeights)
		}
		if err == nil && v < in.version[c] {
			err = fmt.Errorf("version %d after %d is not monotone", v, in.version[c])
		}
		if err != nil {
			return 0, fmt.Errorf("session %d pull: %w", c, err)
		}
		return 1, nil
	}
	j := i - pulls
	c := g*per + j%per
	if err := in.push(g, c, j, tr, id); err != nil {
		return 0, fmt.Errorf("session %d push: %w", c, err)
	}
	return 1, nil
}

func (in *ingest) attemptedPushes() int { return in.pushes[0] + in.pushes[1] }

// verify: the quality of an ingest workload is the share of attempted pushes
// the server applied, which a gain must not get by dropping updates.
func (in *ingest) verify(params) (float64, []string) {
	pushes := in.attemptedPushes()
	return float64(in.srv.Pushes()) / float64(pushes), accountPushes(in.srv, pushes)
}

func (in *ingest) layers(p params, seg *segment, m map[string]float64) error {
	var all []float64
	for _, kind := range []string{"raw", "sparse", "quant"} {
		d := spanSeconds(seg.spans, "flnet.push_"+kind)
		if len(d) == 0 {
			continue
		}
		m["flnet.push_"+kind+"_p50_s"] = median(d)
		m["flnet.push_"+kind+"_p99_s"] = quantile(d, 0.99)
		all = append(all, d...)
	}
	if pulls := spanSeconds(seg.spans, "flnet.pull"); len(pulls) > 0 {
		m["flnet.pull_p50_s"] = median(pulls)
		all = append(all, pulls...)
	}
	m["flnet.push_share"] = sum(all) / (seg.wall * float64(seg.gens))
	flnetLayers(m, seg, float64(seg.ops), in.srv, in.clients, in.attemptedPushes())
	m["flnet.retained_bytes_per_session"] = (retainedHeap() - in.heap0) / float64(len(in.clients))

	// What the harness can see of a push from outside is its codec work and
	// the mix; the rest — sockets, copies, locks, scheduling — is the residual
	// a later in-program trace will split. An uplink and the dense reply each
	// cost one raw encode and one raw decode.
	replyCodec := m["wire.encode_raw_s"] + m["wire.decode_raw_s"]
	if in.fleet {
		uplink := (m["wire.encode_sparse_s"] + m["wire.decode_sparse_s"] +
			m["wire.encode_quant_s"] + m["wire.decode_quant_s"]) / 2
		m["wire.share_of_push"] = (uplink + replyCodec) / median(all)
	} else {
		m["wire.share_of_push"] = 2 * replyCodec / median(all)
		m["flnet.residual_s"] = median(all) - 2*replyCodec - m["fl.async_mix_s"]
	}
	return nil
}

func (in *ingest) close() {
	for _, cl := range in.clients {
		cl.Close()
	}
	in.srv.Close()
}
