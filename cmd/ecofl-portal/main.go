// Command ecofl-portal runs one Eco-FL participant (a smart home's portal
// node): it deterministically derives its local non-IID data shard from the
// shared dataset seed, trains the global model through a local 1F1B-Sync
// pipeline whose stages exchange tensors over real TCP loopback connections
// (the in-home device links), and pushes updates to an ecofl-server.
//
//	ecofl-portal --server 127.0.0.1:9000 --id 0 --of 4 --rounds 10
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"ecofl/internal/data"
	"ecofl/internal/fl"
	"ecofl/internal/flnet"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/pipeline/runtime"
)

func main() {
	server := flag.String("server", "127.0.0.1:9000", "ecofl-server address")
	id := flag.Int("id", 0, "portal id (selects the data shard)")
	of := flag.Int("of", 4, "total number of portals (shard count)")
	rounds := flag.Int("rounds", 10, "pull/train/push rounds")
	stages := flag.Int("stages", 2, "pipeline stages (in-home devices); at most 2, one per model block")
	mbs := flag.Int("mbs", 8, "micro-batch size")
	batch := flag.Int("batch", 32, "mini-batch size per sync-round")
	lr := flag.Float64("lr", 0.05, "learning rate")
	mu := flag.Float64("mu", 0.05, "FedProx proximal coefficient")
	epochs := flag.Int("epochs", 2, "local epochs per round")
	dim := flag.Int("dim", 32, "model input dimension")
	hidden := flag.Int("hidden", 64, "model hidden width")
	classes := flag.Int("classes", 10, "number of classes")
	modelSeed := flag.Int64("model-seed", 1, "global model init seed (must match server)")
	dataSeed := flag.Int64("data-seed", 7, "dataset seed (must match server)")
	datasetSize := flag.Int("dataset-size", 4000, "synthetic dataset size")
	quantize := flag.Bool("quantize", false, "push int8-quantized updates (8x smaller uplink)")
	sparseTopK := flag.Int("sparse-topk", 0, "push top-k sparse deltas against the last-acked model (0 disables; overrides --quantize)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace (chrome://tracing) of the recorder — pipeline spans and events — here on exit")
	telemetry := flag.Bool("telemetry", false, "ship metrics and the recorder's events and spans to the server (piggybacked on pushes)")
	telemetryEvery := flag.Duration("telemetry-every", 5*time.Second, "background telemetry flush interval (0 = piggyback only)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-round-trip deadline (negative disables)")
	retries := flag.Int("retries", 5, "round-trip retries over fresh connections before giving up (negative disables)")
	journalCap := flag.Int("journal", 0, "recorder events kept (0: off, or 262144 when --trace-out or --telemetry turns the recorder on); with --telemetry the lane ships to the server's /events timeline")
	napAfter := flag.Int("nap-after", 0, "go dark after this many rounds (0 disables) — churn drill for a lease-running server")
	napFor := flag.Duration("nap-for", 0, "how long to stay dark at the --nap-after point")
	adversary := flag.String("adversary", "", "act as a compromised portal: corrupt every update before pushing (sign-flip, noise, zero, nan, drift; empty disables) — defense drill for a norm-gated server")
	advScale := flag.Float64("adv-scale", 0, "corruption gain for --adversary (0 = mode default)")
	flag.Parse()

	if *id < 0 || *id >= *of {
		log.Fatalf("ecofl-portal: id %d out of range [0,%d)", *id, *of)
	}
	// Derive this portal's non-IID shard (2 classes, §6.1).
	rng := rand.New(rand.NewSource(*dataSeed))
	ds := data.MNISTLike(rng, *datasetSize)
	shards := data.PartitionByClasses(rng, ds, *of, 2)
	shard := shards[*id]

	// The trainable must match the server's architecture exactly: one hidden
	// layer, so two blocks (hidden, classifier) and at most two stages.
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(*modelSeed)), "portal", *dim, []int{*hidden}, *classes)
	if *stages < 1 || *stages > len(tr.Blocks) {
		log.Fatalf("ecofl-portal: --stages %d out of range [1,%d]: a stage needs at least one model block, and ecofl-server fixes the architecture at one hidden layer",
			*stages, len(tr.Blocks))
	}
	cuts := make([]int, 0, *stages-1)
	for c := 1; c < *stages; c++ {
		cuts = append(cuts, c)
	}
	pipe, err := runtime.NewDistributed(tr, cuts, runtime.TCPLinks())
	if err != nil {
		log.Fatal(err)
	}
	// One recorder serves --journal, --trace-out and --telemetry: the
	// transport's events and the pipeline's spans land in it, the Chrome
	// trace exports it and telemetry ships it.
	var rec *journal.Recorder
	if capacity := *journalCap; capacity > 0 || *traceOut != "" || *telemetry {
		if capacity == 0 {
			capacity = 1 << 18
		}
		rec = journal.New(*id, capacity)
		rec.SetName(journal.None, fmt.Sprintf("ecofl-portal %d", *id))
		pipe.SetTrace(rec)
	}
	if *traceOut != "" {
		defer func() {
			if err := journal.WriteChromeTraceFile(*traceOut, rec.WriteChromeTrace); err != nil {
				log.Printf("ecofl-portal %d: trace export: %v", *id, err)
				return
			}
			log.Printf("ecofl-portal %d: wrote %d trace events to %s (load in chrome://tracing)",
				*id, rec.Len(), *traceOut)
		}()
	}
	log.Printf("ecofl-portal %d: shard %d samples, %d-stage pipeline, server %s",
		*id, shard.Len(), pipe.NumStages(), *server)

	// A server bounce or flaky link is survivable: round trips run under a
	// deadline and retried pushes are deduplicated server-side, so --retries
	// can be generous without risking a double-applied update.
	client, err := flnet.DialOptions(*server, *id, flnet.Options{
		Timeout:    *timeout,
		MaxRetries: *retries,
		Journal:    rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if *telemetry {
		stop := client.EnableTelemetry(nil, nil, "ecofl-portal", *telemetryEvery)
		defer stop()
		log.Printf("ecofl-portal %d: telemetry enabled (flush every %v)", *id, *telemetryEvery)
	}

	// A compromised portal trains honestly, then corrupts the trained update
	// against the round's pulled base right before it hits the wire — the
	// same seeded corruption modes the simulation injects, here exercising a
	// real server's ingest gate end to end.
	var advPlan *fl.AdversaryPlan
	if *adversary != "" {
		a := &fl.Adversary{
			Fraction: 1,
			Mode:     *adversary,
			Scale:    *advScale,
			Seed:     int64(9000 + *id),
		}
		if err := a.Validate(); err != nil {
			log.Fatalf("ecofl-portal: %v", err)
		}
		advPlan = a.Plan(1)
		log.Printf("ecofl-portal %d: ADVERSARY mode %s (scale %g) — corrupting every push", *id, *adversary, *advScale)
	}

	w, version, err := client.Pull()
	if err != nil {
		log.Fatal(err)
	}
	lrng := rand.New(rand.NewSource(int64(1000 + *id)))
	for round := 1; round <= *rounds; round++ {
		if *napAfter > 0 && *napFor > 0 && round == *napAfter+1 {
			// Simulated churn: the device leaves the network long enough for a
			// lease-running server to expire its session, then resumes. The
			// next push rides the lease re-sync path transparently.
			log.Printf("ecofl-portal %d: napping %v after round %d (lease churn drill)",
				*id, *napFor, *napAfter)
			time.Sleep(*napFor)
		}
		pipe.Network().SetFlatWeights(w)
		opt := &nn.SGD{LR: *lr, Mu: *mu, Global: w}
		var loss float64
		n := 0
		for e := 0; e < *epochs; e++ {
			for _, b := range shard.Batches(lrng, *batch) {
				l, err := pipe.TrainSyncRound(b.X, b.Y, *mbs, opt)
				if err != nil {
					log.Fatal(err)
				}
				loss += l
				n++
			}
		}
		upd := pipe.Network().FlatWeights()
		if advPlan != nil {
			advPlan.Corrupt(0, w, upd)
		}
		switch {
		case *sparseTopK > 0:
			w, version, err = client.PushDelta(upd, shard.Len(), version, *sparseTopK)
		case *quantize:
			w, version, err = client.PushQuantized(upd, shard.Len(), version)
		default:
			w, version, err = client.Push(upd, shard.Len(), version)
		}
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ecofl-portal %d: round %d/%d, local loss %.4f, global v%d",
			*id, round, *rounds, loss/float64(n), version)
	}
	rt, rc := client.Stats()
	if rec != nil {
		log.Printf("ecofl-portal %d: recorder captured %d events (%d dropped)",
			*id, rec.Len(), rec.Dropped())
	}
	fmt.Printf("portal %d done after %d rounds (global v%d, %d retries, %d reconnects)\n",
		*id, *rounds, version, rt, rc)
}
