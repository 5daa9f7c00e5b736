package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"ecofl/internal/experiments"
	"ecofl/internal/fl"
	"ecofl/internal/flnet"
	"ecofl/internal/metrics"
	"ecofl/internal/obs/journal"
)

const (
	fedClients = 16
	// fedQualityRounds is the round whose test accuracy is the workload's
	// accuracy metric: fixed, so the figure repeats exactly for a seed.
	fedQualityRounds = 150
	// fedReplayRounds is how many rounds a second instance of the same seed
	// replays to check that the global model is bit-reproducible.
	fedReplayRounds = 10
	fedMinAccuracy  = 0.80
	fedMu           = 0.05
)

// fedround is ROADMAP's "one federated round through the real transport":
// every client trains locally, pushes its raw update over TCP loopback
// through the norm-gated server, adopts the reply; then the global model is
// evaluated. One generator, so the final model is bit-reproducible.
type fedround struct {
	p       params
	pop     *fl.Population
	srv     *flnet.Server
	clients []*flnet.Client
	stops   []func()
	local   [][]float64
	base    []int
	train   *rand.Rand // mini-batch order inside LocalTrain
	order   *rand.Rand // client order inside a round
	n       int        // model length

	acc       []float64 // test accuracy after each round
	replaySum uint64    // checksum of the global model after fedReplayRounds
	pushes    int
}

func setupFedround(p params, tr *tracer) (instance, error) {
	return newFedround(p, tr, false)
}

// newFedround builds the federation. With journaled set, the server's and
// every client's flight recorder is on and client journals piggyback on
// pushes as telemetry — the configuration obs.journal_overhead_share prices.
func newFedround(p params, tr *tracer, journaled bool) (*fedround, error) {
	cfg := fl.Config{Seed: p.subseed("fed/data"), MaxConcurrent: fedClients, LocalEpochs: 2,
		BatchSize: 10, LR: 0.05, Mu: fedMu, Alpha: 0.5}
	f := &fedround{p: p,
		train: rand.New(rand.NewSource(p.subseed("fed/batches"))),
		order: rand.New(rand.NewSource(p.subseed("fed/order")))}
	f.pop = experiments.BuildPopulation(cfg.Seed, "fashion-mnist",
		experiments.Scale{Clients: fedClients, DatasetSize: 3200, MaxConcurrent: fedClients, LocalEpochs: 2}, cfg)
	init := f.pop.GlobalInit()
	f.n = len(init)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	so := flnet.ServerOptions{Alpha: 0.5, NormGate: true}
	if journaled {
		so.Journal = journal.NewFleet(4096, journal.New(-1, 4096))
	}
	if f.srv, err = flnet.NewServerOpts(ln, init, so); err != nil {
		ln.Close()
		return nil, err
	}
	for i := 0; i < fedClients; i++ {
		o := flnet.Options{JitterSeed: p.subseed(fmt.Sprintf("fed/jitter/%d", i))}
		if journaled {
			o.Journal = journal.New(i, 1024)
		}
		sp := tr.begin("flnet.dial", -1, int64(i))
		cl, err := flnet.DialOptions(f.srv.Addr(), i, o)
		tr.end(sp)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		f.clients = append(f.clients, cl)
		if journaled {
			f.stops = append(f.stops, cl.EnableTelemetry(metrics.NewRegistry(), nil, "benchmark", 0))
		}
		// A client's first contact is a pull of the initial model.
		w, v, err := cl.Pull()
		if err == nil {
			err = checkReply(w, f.n)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("pull client %d: %w", i, err)
		}
		f.local = append(f.local, w)
		f.base = append(f.base, v)
	}
	return f, nil
}

func (f *fedround) op(_, _ int, tr *tracer) (int, error) {
	id := tr.opID()
	root := tr.begin("round", -1, id)
	for _, i := range f.order.Perm(fedClients) {
		c := f.pop.Clients[i]
		sp := tr.begin("fl.local_train", root, id)
		upd := f.pop.LocalTrain(f.train, c, f.local[i], fedMu)
		tr.end(sp)

		sp = tr.begin("flnet.push_raw", root, id)
		w, v, err := f.clients[i].Push(upd, c.Train.Len(), f.base[i])
		tr.end(sp)
		f.pushes++
		if err != nil {
			return 0, fmt.Errorf("client %d push: %w", i, err)
		}
		if err := checkReply(w, f.n); err != nil {
			return 0, fmt.Errorf("client %d: %w", i, err)
		}
		// Not strictly: the norm gate may quarantine a push, which is acked at
		// the current version without advancing it.
		if v < f.base[i] {
			return 0, fmt.Errorf("client %d: version %d after %d is not monotone", i, v, f.base[i])
		}
		f.local[i], f.base[i] = w, v
	}
	sp := tr.begin("fl.evaluate", root, id)
	w, _ := f.srv.Snapshot()
	f.acc = append(f.acc, f.pop.Evaluate(w))
	tr.end(sp)
	tr.end(root)
	if len(f.acc) == f.p.ops(fedReplayRounds) {
		f.replaySum = checksum(w)
	}
	return 1, nil
}

// nearestMeanAccuracy is the test accuracy of a nearest-class-mean classifier
// fitted on the population's whole dataset: how hard this seed's data is.
// The class means are drawn from the seed, so raw accuracy ranges 0.87–0.95
// across seeds; divided by this yardstick it stays within a few per cent.
func nearestMeanAccuracy(pop *fl.Population) float64 {
	ds := pop.Clients[0].Train.Parent
	k, dim := ds.NumClasses, ds.Dim
	means := make([]float64, k*dim)
	counts := make([]float64, k)
	for i, y := range ds.Y {
		counts[y]++
		for j, v := range ds.X.Data[i*dim : (i+1)*dim] {
			means[y*dim+j] += v
		}
	}
	for c := 0; c < k; c++ {
		for j := 0; j < dim; j++ {
			means[c*dim+j] /= counts[c]
		}
	}
	hits := 0
	for i, y := range pop.TestY {
		x := pop.TestX.Data[i*dim : (i+1)*dim]
		best, bestDist := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			var d float64
			for j, v := range x {
				e := v - means[c*dim+j]
				d += e * e
			}
			if d < bestDist {
				best, bestDist = c, d
			}
		}
		if best == y {
			hits++
		}
	}
	return float64(hits) / float64(len(pop.TestY))
}

func (f *fedround) verify(p params) (float64, []string) {
	problems := accountPushes(f.srv, f.pushes)
	q := p.ops(fedQualityRounds)
	if len(f.acc) < q {
		return 0, append(problems, fmt.Sprintf("only %d of %d rounds completed", len(f.acc), q))
	}
	if p.scale >= 1 && f.acc[q-1] < fedMinAccuracy {
		problems = append(problems, fmt.Sprintf("accuracy %.4f after %d rounds is below %.2f", f.acc[q-1], q, fedMinAccuracy))
	}
	quality := f.acc[q-1] / nearestMeanAccuracy(f.pop)
	// Bit-reproducibility: a second federation built from the same seed must
	// hold the same global model after the same rounds.
	twin, err := newFedround(p, nil, false)
	if err != nil {
		return quality, append(problems, "replay set-up: "+err.Error())
	}
	defer twin.close()
	for r := 0; r < p.ops(fedReplayRounds); r++ {
		if _, err := twin.op(0, r, nil); err != nil {
			return quality, append(problems, "replay: "+err.Error())
		}
	}
	if twin.replaySum != f.replaySum {
		problems = append(problems, fmt.Sprintf("global model after %d rounds differs between two runs of one seed (%x vs %x)",
			p.ops(fedReplayRounds), f.replaySum, twin.replaySum))
	}
	return quality, problems
}

func (f *fedround) layers(p params, seg *segment, m map[string]float64) error {
	train := spanSeconds(seg.spans, "fl.local_train")
	eval := spanSeconds(seg.spans, "fl.evaluate")
	push := spanSeconds(seg.spans, "flnet.push_raw")
	rounds := float64(seg.ops)
	m["fl.local_train_p50_s"] = median(train)
	m["fl.local_train_share"] = sum(train) / seg.wall
	m["fl.evaluate_p50_s"] = median(eval)
	m["fl.evaluate_share"] = sum(eval) / seg.wall
	m["flnet.push_raw_p50_s"] = median(push)
	m["flnet.push_raw_p99_s"] = quantile(push, 0.99)
	m["flnet.push_share"] = sum(push) / seg.wall
	m["harness.round_self_share"] = selfSeconds(seg.spans, "round") / seg.wall
	var samples int
	for _, c := range f.pop.Clients {
		samples += c.Train.Len() * f.pop.Config.LocalEpochs
	}
	m["fl.samples_per_s"] = float64(samples) * rounds / seg.wall

	c := f.pop.Clients[0]
	rng := rand.New(rand.NewSource(1))
	m["fl.local_train_allocs"] = allocsPerCall(20, func() { f.pop.LocalTrain(rng, c, f.local[0], fedMu) })
	flnetLayers(m, seg, rounds*fedClients, f.srv, f.clients, f.pushes)

	// Journal overhead: two fresh federations of the same seed, one with the
	// flight recorder and telemetry piggyback on, advanced in alternation so
	// both see the same machine weather; the ratio of their median rounds.
	plain, err := newFedround(p, nil, false)
	if err != nil {
		return err
	}
	defer plain.close()
	journaled, err := newFedround(p, nil, true)
	if err != nil {
		return err
	}
	defer journaled.close()
	var durs [2][]float64
	for r := 0; r < p.ops(30); r++ {
		for side, fed := range []*fedround{plain, journaled} {
			t0 := time.Now()
			if _, err := fed.op(0, r, nil); err != nil {
				return err
			}
			durs[side] = append(durs[side], time.Since(t0).Seconds())
		}
	}
	m["obs.journal_overhead_share"] = median(durs[1])/median(durs[0]) - 1
	return nil
}

func (f *fedround) close() {
	for _, stop := range f.stops {
		stop()
	}
	for _, cl := range f.clients {
		cl.Close()
	}
	f.srv.Close()
}
