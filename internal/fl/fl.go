// Package fl implements Eco-FL's server side (§5): the grouping-based
// hierarchical aggregation combining synchronous intra-group FedProx rounds
// with asynchronous inter-group mixing, the adaptive client grouping of
// Eq. 4 / Algorithm 1, and the FedAvg / FedAsync / FedAT / Astraea baselines
// of §6.2. Simulations run on virtual time (clients' response latencies)
// while model updates are computed for real on each client's local data, so
// accuracy-versus-time curves are genuine training curves.
package fl

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ecofl/internal/data"
	"ecofl/internal/device"
	"ecofl/internal/fl/robust"
	"ecofl/internal/metrics"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/tensor"
)

// CollabDegrees is the paper's set of collaborative degrees: the fraction
// of the original response delay remaining after edge-collaborative pipeline
// acceleration (§6.1). 0.2 means strong acceleration, 1.0 none.
var CollabDegrees = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// Client is one FL participant (a smart home with its pipeline).
type Client struct {
	ID int
	// Train is the client's local data shard.
	Train *data.Subset
	// BaseDelay is the original per-round response delay; the effective
	// latency is BaseDelay × CollabDegree (§6.1).
	BaseDelay    float64
	CollabDegree float64
	// MeasuredLatency, when > 0, overrides the configured
	// BaseDelay × CollabDegree model with a latency actually measured by
	// fleet telemetry (the server-side inter-push interval, internal/flnet).
	// Every grouping decision flows through Latency(), so setting this one
	// field switches the whole grouping machinery — Eq. 4 distances, group
	// centers, round times, Algorithm 1 regrouping — from configured
	// constants to measurements.
	MeasuredLatency float64
	// Dropped marks a client temporarily excluded by Algorithm 1.
	Dropped bool
	// Offline marks a client currently outside its availability trace's
	// online window (Config.Churn). Unlike Dropped — an eviction that only
	// TryReadmit reverses — Offline clears automatically when the trace
	// brings the device back.
	Offline bool
	// LastLoss is the client's most recent mean training loss; the
	// serial-equivalence tests compare it bit for bit.
	LastLoss float64

	net *nn.Network
	// counts are the label counts of the shard countsOf, which labelCounts
	// keeps equal to Train.
	counts   []int
	countsOf *data.Subset
}

// Latency returns the client's current response latency: the telemetry
// measurement when one is present, otherwise the §6.1 model (original delay
// × collaborative degree).
func (c *Client) Latency() float64 {
	if c.MeasuredLatency > 0 {
		return c.MeasuredLatency
	}
	return c.BaseDelay * c.CollabDegree
}

// SetShard replaces the client's local data (used by experiment setups that
// assign data after latencies are known, e.g. the RLG protocols of §6.1).
// The label counts grouping reads follow: they are counted again from s.
func (c *Client) SetShard(s *data.Subset) { c.Train = s }

// labelCounts returns the per-class example counts of the client's shard,
// counted once per shard: Eq. 4's cost, Group.Add and Group.Remove read them
// on every call, some 10⁴ calls per paper-scale grouping. The shard they were
// counted from is kept with them, so a new Train is counted anew.
func (c *Client) labelCounts() []int {
	if c.countsOf != c.Train {
		c.counts, c.countsOf = c.Train.LabelCounts(), c.Train
	}
	return c.counts
}

// MaybeRedraw re-samples the collaborative degree with probability p — the
// paper's dynamic setting where available edge resources fluctuate.
func (c *Client) MaybeRedraw(rng *rand.Rand, p float64) bool {
	if rng.Float64() >= p {
		return false
	}
	c.CollabDegree = CollabDegrees[rng.Intn(len(CollabDegrees))]
	return true
}

// Config collects the hyperparameters shared by all strategies (§6.1).
type Config struct {
	Seed          int64
	NumClients    int     // paper: 300
	MaxConcurrent int     // paper: at most 20 clients per round
	LocalEpochs   int     // paper: 3
	BatchSize     int     // paper: 10
	LR            float64 // learning rate for local SGD
	Mu            float64 // FedProx proximal coefficient (paper: 0.05)
	Alpha         float64 // asynchronous mixing weight (FedAsync / inter-group)
	Lambda        float64 // grouping cost trade-off λ (Eq. 4)
	NumGroups     int     // paper: 5 response-latency groups
	RTThreshold   float64 // RT_g straggler threshold
	// GroupSyncEvery is how many intra-group synchronous rounds a group
	// runs between pushes to the asynchronous global aggregator (the "e
	// steps of local updates" of §5.1 at group granularity). Default 1.
	GroupSyncEvery int
	// Duration is the virtual-time horizon; EvalInterval the accuracy
	// sampling period.
	Duration     float64
	EvalInterval float64
	// Dynamic enables collaborative-degree re-draws every DynamicInterval
	// with probability DynamicProb per client.
	Dynamic         bool
	DynamicProb     float64
	DynamicInterval float64

	// DropoutProb is the per-round probability that a selected client drops
	// out after being dispatched (a crash or lost link): its local work is
	// discarded and it contributes nothing to the round. 0 disables dropout
	// and leaves the run's random stream untouched, so legacy curves are
	// byte-identical.
	DropoutProb float64
	// Quorum is the fraction of a round's selected clients whose reports are
	// required (and sufficient) to commit the round: the round completes as
	// soon as ⌈Quorum·selected⌉ survivors have reported, aggregation is
	// sample-weighted over exactly those fastest reporters, and slower
	// survivors' work is discarded. If fewer than the quorum survive, the
	// round fails: the full round timeout elapses and the model is unchanged.
	// 0 (or ≥1) means every selected client must report — the classic
	// synchronous round. A lone asynchronous update (fedasync) is no
	// committee: neither DropoutProb nor Quorum applies to it.
	Quorum float64

	// Robust, when non-nil, replaces the sample-weighted mean of every
	// synchronous aggregation step (FedAvg commits, hierarchical in-group
	// FedProx rounds) with a Byzantine-resilient mixer, and arms a
	// staleness-aware norm clip on the FedAsync mixing path. nil keeps the
	// legacy WeightedAverage arithmetic — byte-identical curves, pinned by
	// test. robust.Mean is the interface-shaped twin of that legacy path
	// and is likewise bit-identical.
	Robust robust.Aggregator
	// Adversary, when non-nil with Fraction > 0, compromises a seeded
	// fraction of the fleet: every update a compromised client reports is
	// corrupted (sign-flip, noise, zero, NaN, drift) before aggregation
	// sees it. The adversary draws from its own seed lane, so attaching
	// one with Fraction 0 — or detaching it — leaves honest curves
	// byte-identical. Corruptions are journaled as "adv.corrupt" and
	// counted in RunResult.Corrupted.
	Adversary *Adversary

	// Churn, when non-nil, attaches per-client availability traces
	// (internal/device) and switches failure from the DropoutProb coin flip
	// to observed liveness: selection sees only clients whose trace has them
	// online, a selected client whose trace goes dark before its report
	// lands departs mid-round, and a returning device is re-admitted. Traces
	// carry their own seeds, so churn consumes nothing from the strategy's
	// rng stream — with Churn nil the legacy path is byte-identical.
	Churn *device.TraceSet

	// MeanDelay/StdDelay parameterize the normal distribution the
	// original response delays are sampled from.
	MeanDelay, StdDelay float64

	// Journal, when non-nil, is the flight recorder for round lifecycle
	// decisions: round start/commit, quorum burns, dropout casualties and
	// straggler evictions. A resolved round's fl.round-commit or
	// fl.quorum-fail event is its span: its duration is the round time, its
	// lane the run's lane (the fleet, a group, or an async worker slot). Use
	// a clockless recorder (journal.NewClock with a nil clock): strategies
	// stamp events with the run's virtual time. Recording only reads
	// simulation state — it never touches the rng stream or the math, so
	// curves are byte-identical with it on or off.
	Journal *journal.Recorder
}

// runMetrics are one simulation run's instruments on the Default registry,
// resolved once at run start so per-round updates never take the registry
// lock. Every strategy family is labelled by strategy name.
type runMetrics struct {
	rounds    *metrics.Counter
	selected  *metrics.Counter
	roundSec  *metrics.Histogram
	accuracy  *metrics.Gauge
	dropouts  *metrics.Counter
	discarded *metrics.Counter
	failed    *metrics.Counter
	departs   *metrics.Counter
	readmits  *metrics.Counter
	clips     *metrics.Counter
}

func newRunMetrics(strategy string) *runMetrics {
	return &runMetrics{
		rounds: metrics.GetCounter("ecofl_fl_rounds_total",
			"aggregation rounds executed per strategy", "strategy", strategy),
		selected: metrics.GetCounter("ecofl_fl_selected_clients_total",
			"client local updates dispatched per strategy", "strategy", strategy),
		roundSec: metrics.GetHistogram("ecofl_fl_round_virtual_seconds",
			"virtual-time duration of one aggregation round",
			metrics.ExpBuckets(1, 2, 10), "strategy", strategy),
		accuracy: metrics.GetGauge("ecofl_fl_eval_accuracy",
			"most recent test accuracy of the global model", "strategy", strategy),
		dropouts: metrics.GetCounter("ecofl_fl_dropout_clients_total",
			"selected clients that dropped out mid-round", "strategy", strategy),
		discarded: metrics.GetCounter("ecofl_fl_quorum_discarded_total",
			"surviving stragglers whose work was discarded by the quorum cut", "strategy", strategy),
		failed: metrics.GetCounter("ecofl_fl_quorum_failed_rounds_total",
			"rounds aborted because fewer than the quorum survived", "strategy", strategy),
		departs: metrics.GetCounter("ecofl_fl_churn_departures_total",
			"selected clients whose availability trace took them offline mid-round", "strategy", strategy),
		readmits: metrics.GetCounter("ecofl_fl_readmissions_total",
			"clients re-admitted to selection after an offline interval", "strategy", strategy),
		clips: metrics.GetCounter("ecofl_fl_async_norm_clips_total",
			"async mix-ins bounded by the staleness-aware norm clip", "strategy", strategy),
	}
}

// withDefaults fills unset fields with the paper's configuration.
func (c Config) withDefaults() Config {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	if c.NumClients == 0 {
		c.NumClients = 300
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 20
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 10
	}
	def(&c.LR, 0.05)
	def(&c.Mu, 0.05)
	def(&c.Alpha, 0.4)
	if c.NumGroups == 0 {
		c.NumGroups = 5
	}
	if c.GroupSyncEvery == 0 {
		c.GroupSyncEvery = 1
	}
	def(&c.RTThreshold, 15)
	def(&c.Duration, 5000)
	def(&c.EvalInterval, 50)
	def(&c.DynamicProb, 0.2)
	def(&c.DynamicInterval, 200)
	def(&c.MeanDelay, 40)
	def(&c.StdDelay, 12)
	return c
}

// Population is the full client fleet plus the shared test set and the
// global model prototype.
type Population struct {
	Clients []*Client
	TestX   *tensor.Tensor
	TestY   []int
	Proto   *nn.Network // architecture template; weights are the seed init
	Config  Config

	adv     *AdversaryPlan
	advOnce sync.Once
}

// adversary lazily materializes the configured adversary plan over the
// fleet (nil — a total nop — when no adversary is configured). The plan is
// built once so drift state and corruption counts span the whole run.
func (p *Population) adversary() *AdversaryPlan {
	p.advOnce.Do(func() {
		a := p.Config.Adversary
		if a == nil || a.Fraction <= 0 {
			return
		}
		if a.Seed == 0 {
			withSeed := *a
			withSeed.Seed = p.Config.Seed + advSeedOffset
			a = &withSeed
		}
		p.adv = a.Plan(len(p.Clients))
	})
	return p.adv
}

// corrupt routes one client's trained update through the adversary plan,
// journaling corruptions as "adv.corrupt". Callers serialize (strategies
// corrupt after the parallel training fan-in).
func (p *Population) corrupt(c *Client, ref, update []float64) {
	plan := p.adversary()
	if plan == nil {
		return
	}
	if plan.Corrupt(c.ID, ref, update) {
		p.Config.Journal.Record("adv.corrupt", journal.None, c.ID, "mode", plan.Mode())
	}
}

// Corruptions reports how many updates the configured adversary has
// corrupted so far in this population's run (0 without an adversary).
func (p *Population) Corruptions() int { return p.adversary().Corruptions() }

// NewPopulation builds clients from pre-partitioned shards with an MLP
// global model, of which every client trains an independent clone, sampling
// each client's base delay from N(MeanDelay, StdDelay²) clipped at
// MeanDelay/4, and assigning a random collaborative degree (§6.1).
func NewPopulation(rng *rand.Rand, shards []*data.Subset, testX *tensor.Tensor, testY []int, cfg Config) *Population {
	proto := nn.NewMLP(rng, shards[0].Parent.Dim, 64, shards[0].Parent.NumClasses)
	cfg = cfg.withDefaults()
	cfg.NumClients = len(shards)
	p := &Population{TestX: testX, TestY: testY, Config: cfg, Proto: proto}
	for i, sh := range shards {
		base := cfg.MeanDelay + rng.NormFloat64()*cfg.StdDelay
		if base < cfg.MeanDelay/4 {
			base = cfg.MeanDelay / 4
		}
		c := &Client{
			ID:           i,
			Train:        sh,
			BaseDelay:    base,
			CollabDegree: CollabDegrees[rng.Intn(len(CollabDegrees))],
			net:          p.Proto.Clone(),
		}
		p.Clients = append(p.Clients, c)
	}
	return p
}

// ApplyMeasuredLatencies installs telemetry-measured per-client round
// latencies (keyed by client ID, e.g. StragglerDetector.MeasuredLatencies)
// as the fleet's effective latencies, returning how many clients matched.
// Non-positive measurements are ignored; clients without a measurement keep
// the configured model.
func (p *Population) ApplyMeasuredLatencies(lat map[int]float64) int {
	applied := 0
	for _, c := range p.Clients {
		if l, ok := lat[c.ID]; ok && l > 0 {
			c.MeasuredLatency = l
			applied++
		}
	}
	return applied
}

// EvictStragglers marks the given client IDs as dropped, excluding them from
// selection until Algorithm 1's TryReadmit (or a manual reset) brings them
// back. It is the bridge from measured fleet health to the simulation: feed
// it the IDs flagged by the flnet StragglerDetector and the chronically slow
// portals stop being scheduled. Returns how many IDs matched a client.
func (p *Population) EvictStragglers(ids []int) int {
	byID := make(map[int]*Client, len(p.Clients))
	for _, c := range p.Clients {
		byID[c.ID] = c
	}
	evicted := 0
	for _, id := range ids {
		if c, ok := byID[id]; ok && !c.Dropped {
			c.Dropped = true
			p.Config.Journal.Record("fl.evict", journal.None, id)
			evicted++
		}
	}
	return evicted
}

// GlobalInit returns the initial global weight vector.
func (p *Population) GlobalInit() []float64 { return p.Proto.FlatWeights() }

// TestClasses returns the number of classes in the task.
func (p *Population) TestClasses() int {
	if len(p.Clients) == 0 {
		return 0
	}
	return p.Clients[0].Train.Parent.NumClasses
}

// Evaluate returns the test accuracy of a global weight vector.
func (p *Population) Evaluate(w []float64) float64 {
	p.Proto.SetFlatWeights(w)
	return p.Proto.Accuracy(p.TestX, p.TestY)
}

// planLocal pre-draws the client's mini-batch sequence for one local
// update as an index plan: LocalEpochs independent shuffles of the shard,
// end to end, each Train.Len() dataset indices long. All randomness of a
// local update is consumed here, in caller order, so the compute phase can
// run on a worker goroutine without touching the shared rng — and a parallel
// round consumes the rng stream exactly like a serial one. The plan is the
// order only; no example is copied until trainPlanned reaches it. The plan
// is pooled scratch: return it to intScratch once the update is trained.
func (p *Population) planLocal(rng *rand.Rand, c *Client) *[]int {
	plan := intScratch.Get().(*[]int)
	*plan = (*plan)[:0]
	for e := 0; e < p.Config.LocalEpochs; e++ {
		*plan = c.Train.AppendShuffled(*plan, rng)
	}
	return plan
}

// intScratch pools the index plans and label slices of local updates. A
// round holds one plan per selected client and none after it, so the scratch
// scales with the clients training at once, not with the fleet.
var intScratch = sync.Pool{New: func() any { return new([]int) }}

// trainPlanned is the pure-compute phase of a local update: mini-batch SGD
// over a pre-drawn index plan with a FedProx proximal term µ‖w − ref‖²/2
// pulling toward ref. Every mini-batch — BatchSize consecutive indices of one
// epoch, the epoch's last one possibly short — is gathered into a single
// pooled buffer that goes back to the pool when the update is done. It
// touches only client-owned state (the client's network clone and LastLoss),
// so distinct clients may run concurrently. It returns the client's weight
// slab itself, not a copy; ref must not be that slab (see detachRef). Its
// kernels fan out at most width wide (0 is the whole box).
func (p *Population) trainPlanned(c *Client, ref []float64, mu float64, plan []int, width int) []float64 {
	cfg := p.Config
	c.net.SetFlatWeights(ref)
	c.net.Width = width
	opt := &nn.SGD{LR: cfg.LR, Mu: mu, Global: ref}
	ds, n := c.Train.Parent, c.Train.Len()
	size := min(cfg.BatchSize, n)
	buf := tensor.GetBufUninit(size * ds.Dim)
	full := buf.Data // Gather cuts buf to the batch at hand; the pool wants it whole
	labels := intScratch.Get().(*[]int)
	batch := data.Batch{X: buf, Y: slices.Grow((*labels)[:0], size)}
	var lossSum float64
	batches := 0
	for ; len(plan) > 0; plan = plan[n:] {
		for start := 0; start < n; start += size {
			ds.Gather(&batch, plan[start:min(start+size, n)])
			lossSum += c.net.TrainBatch(batch.X, batch.Y, opt)
			batches++
		}
	}
	buf.Data = full
	tensor.PutBuf(buf)
	*labels = batch.Y
	intScratch.Put(labels)
	if batches > 0 {
		c.LastLoss = lossSum / float64(batches)
	}
	return c.net.Weights()
}

// detachRef returns ref itself, or, when ref is the weight slab of one of
// the clients about to train — an update that client returned — a copy of
// it in the pooled tensor start, for the caller to return with
// tensor.PutBuf. Training overwrites the slab, while the proximal term, the
// other clients and the adversary all need the weights the updates start
// from.
func detachRef(ref []float64, clients ...*Client) (_ []float64, start *tensor.Tensor) {
	for _, c := range clients {
		if tensor.SharesStorage(&tensor.Tensor{Data: ref}, &tensor.Tensor{Data: c.net.Weights()}) {
			start = tensor.GetBufUninit(len(ref))
			copy(start.Data, ref)
			return start.Data, start
		}
	}
	return ref, nil
}

// LocalTrain runs the client's local update: LocalEpochs passes of
// mini-batch SGD from the reference weights ref, with a FedProx proximal
// term µ‖w − ref‖²/2 pulling toward ref (§5.1). Only Eco-FL's intra-group
// training uses the proximal term in the paper, so mu is a parameter:
// baselines pass 0, hierarchical strategies pass Config.Mu. The client's
// sample count is Train.Len().
//
// The updated weights it returns are the client's own weight slab, not a
// copy: they stay valid, and may be written to, until the client's next
// local update overwrites them. A caller that keeps an update past that
// copies it. ref may be the client's previous update.
func (p *Population) LocalTrain(rng *rand.Rand, c *Client, ref []float64, mu float64) []float64 {
	ref, start := detachRef(ref, c)
	plan := p.planLocal(rng, c)
	update := p.trainPlanned(c, ref, mu, *plan, 0)
	intScratch.Put(plan)
	p.corrupt(c, ref, update)
	tensor.PutBuf(start)
	return update
}

// TrainClients runs the local updates of the selected clients from the
// shared reference weights ref, fanning the compute across up to GOMAXPROCS
// trainer goroutines, each with its share of the box (tensor.Split), and
// returns the updated weight vectors indexed like sel. Each client owns its
// network clone and data shard, so the work is embarrassingly parallel;
// updates land in pre-indexed slots and all randomness is drawn
// sequentially up front (see planLocal), so aggregation order, the rng
// stream, and therefore every experiment curve are identical to a serial
// round at any parallelism level. sel must not
// contain duplicates (strategies select distinct clients per round). Like
// LocalTrain's, each update is its client's weight slab, valid until that
// client's next local update; ref may be one of them. The returned slice is
// updates' storage, grown if it is short (nil allocates): a caller training
// round after round passes the previous round's.
func (p *Population) TrainClients(rng *rand.Rand, sel []*Client, ref []float64, mu float64, updates [][]float64) [][]float64 {
	ref, start := detachRef(ref, sel...)
	defer tensor.PutBuf(start)
	updates = slices.Grow(updates[:0], len(sel))[:len(sel)]
	f := fanOuts.Get().(*fanOut)
	f.p, f.sel, f.ref, f.mu, f.updates = p, sel, ref, mu, updates
	for _, c := range sel {
		f.plans = append(f.plans, p.planLocal(rng, c))
	}
	var workers int
	workers, f.width = tensor.Split(runtime.GOMAXPROCS(0), len(sel))
	if workers < 2 {
		for i := range sel {
			f.train(i)
		}
	} else {
		f.next.Store(0)
		f.wg.Add(workers)
		ensureTrainers(workers)
		for k := 0; k < workers; k++ {
			trainerQueue <- f.work
		}
		f.wg.Wait()
	}
	f.release()
	p.corruptAll(sel, ref, updates)
	return updates
}

// fanOut is one TrainClients call's state, shared with the trainers that run
// its updates: the call's arguments, the clients' index plans and the
// work-stealing counter. It is pooled with its work function bound, so a round
// allocates none of it; release drops what it referenced before it goes back.
type fanOut struct {
	p       *Population
	sel     []*Client
	ref     []float64
	mu      float64
	width   int
	updates [][]float64
	plans   []*[]int
	next    atomic.Int64
	wg      sync.WaitGroup
	work    func() // f.steal
}

var fanOuts = sync.Pool{New: func() any {
	f := new(fanOut)
	f.work = f.steal
	return f
}}

// train runs the i-th selected client's update from its plan.
func (f *fanOut) train(i int) {
	f.updates[i] = f.p.trainPlanned(f.sel[i], f.ref, f.mu, *f.plans[i], f.width)
	intScratch.Put(f.plans[i])
}

// steal is one trainer's share: work-stealing over client indices, because
// shard sizes (and therefore local update costs) vary, so static chunking
// would leave workers idle.
func (f *fanOut) steal() {
	defer f.wg.Done()
	for {
		i := int(f.next.Add(1)) - 1
		if i >= len(f.sel) {
			return
		}
		f.train(i)
	}
}

// release returns f to the pool, holding no population, client or weights.
func (f *fanOut) release() {
	clear(f.plans)
	f.plans = f.plans[:0]
	f.p, f.sel, f.ref, f.updates = nil, nil, nil, nil
	fanOuts.Put(f)
}

// TrainClients' work runs on trainer goroutines that live for the process,
// like tensor's worker pool, not on goroutines each round starts and ends.
// The runtime keeps a finished goroutine's record on a free list of the
// processor it finished on, up to 64 of them, and reuses it only for a
// goroutine started there; a round's goroutines start on the caller's
// processor and often finish on another, so a long simulation would park
// dozens of records for good. The trainers are separate from tensor's
// workers because a client update runs kernels that may fan out onto those.
var (
	trainerMu    sync.Mutex
	trainerCount int
	trainerQueue = make(chan func())
)

// ensureTrainers grows the trainer set to at least n.
func ensureTrainers(n int) {
	trainerMu.Lock()
	defer trainerMu.Unlock()
	for ; trainerCount < n; trainerCount++ {
		go func() {
			for work := range trainerQueue {
				work()
			}
		}()
	}
}

// corruptAll applies the adversary to a finished round's updates in
// selection order — after the parallel fan-in, because corruption mutates
// shared per-client adversary state (drift accumulators, rngs).
func (p *Population) corruptAll(sel []*Client, ref []float64, updates [][]float64) {
	if p.adversary() == nil {
		return
	}
	for i, c := range sel {
		p.corrupt(c, ref, updates[i])
	}
}

// aggregateInto mixes one synchronous round's updates into dst: the legacy
// sample-weighted mean, written in place, when no robust aggregator is
// configured (the byte-identical path), the configured Byzantine-resilient
// mixer otherwise. ref is the model the updates were trained from; dst may
// be ref.
func (c Config) aggregateInto(dst, ref []float64, updates [][]float64, weights []float64) {
	if c.Robust == nil {
		weightedMeanInto(dst, updates, weights)
		return
	}
	copy(dst, c.Robust.Aggregate(ref, updates, weights))
}

// WeightedAverage aggregates weight vectors with the given weights
// (normalized internally); used for intra-group synchronous aggregation.
func WeightedAverage(vectors [][]float64, weights []float64) []float64 {
	if len(vectors) == 0 {
		return nil
	}
	out := make([]float64, len(vectors[0]))
	weightedMeanInto(out, vectors, weights)
	return out
}

// weightedMeanInto overwrites out with WeightedAverage(vectors, weights):
// from +0, one AddScaled pass per vector, in order. AddScaled rounds each
// product before adding it, so every element is the scalar loop's
// out[j] += f·x[j], bit for bit (robust.Mean is that loop).
func weightedMeanInto(out []float64, vectors [][]float64, weights []float64) {
	var total float64
	for _, w := range weights {
		total += w
	}
	clear(out)
	acc := tensor.Tensor{Data: out}
	for i, v := range vectors {
		acc.AddScaled(weights[i]/total, &tensor.Tensor{Data: v})
	}
}

// AsyncMix applies the FedAsync global update w ← (1−α)w + αw_new in place,
// through the server's commit kernel (tensor.Mix).
func AsyncMix(global, update []float64, alpha float64) { tensor.Mix(global, global, update, alpha) }

// StalenessAlpha attenuates the mixing weight by update staleness, the
// polynomial staleness function of FedAsync: α_eff = α / (1 + staleness)^a.
func StalenessAlpha(alpha, staleness, a float64) float64 {
	if staleness < 0 {
		staleness = 0
	}
	return alpha / math.Pow(1+staleness, a)
}
