// Command ecofl-server runs a standalone Eco-FL aggregation server: it owns
// the global model and serves pull/push requests from ecofl-portal
// processes over TCP, applying asynchronous staleness-aware aggregation
// (§5.1). The server periodically evaluates the global model on a held-out
// synthetic test set derived from --data-seed (the same seed portals use to
// shard their training data). With --checkpoint it periodically persists its
// aggregation state — weights, version, accepted pushes, and the per-client
// dedup sequence numbers — and resumes from that file on restart, so a crash
// loses no accepted updates: portals retry in-flight pushes and the restored
// dedup window applies each exactly once. The checkpoint file is also the
// model file: one wire.KindCheckpoint frame whose raw payload is the weights.
//
//	ecofl-server --listen 127.0.0.1:9000 --duration 30s --checkpoint srv.ckpt
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"ecofl/internal/data"
	"ecofl/internal/flnet"
	"ecofl/internal/metrics"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
)

// metricsMux builds the observability endpoint: Prometheus exposition of the
// server's own registry at /metrics and of the federated per-node views at
// /fleet, the live dashboard at /dash with its /api/series JSON feed, the
// merged flight-recorder timeline at /events (filterable by node, round,
// client and kind; empty unless --journal or --fleet-trace enables it), a
// liveness probe at /healthz, and the standard pprof handlers under
// /debug/pprof/ (registered explicitly — the server deliberately does not use
// http.DefaultServeMux).
func metricsMux(sp *metrics.Sampler, fleet *flnet.Fleet) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	mux.Handle("/fleet", fleet.Registry().Handler())
	mux.Handle("/dash", metrics.DashHandler())
	mux.Handle("/api/series", sp.SeriesHandler())
	mux.Handle("/events", fleet.Journal().Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Periodic evaluation results as gauges, so the dashboard's accuracy
// sparkline and any scrape see the training make progress.
var (
	evalAccuracy = metrics.GetGauge("ecofl_server_eval_accuracy",
		"held-out test accuracy of the current global model")
	modelVersion = metrics.GetGauge("ecofl_server_model_version",
		"global model version at the last evaluation")
	totalPushes = metrics.GetGauge("ecofl_server_pushes",
		"accepted pushes at the last evaluation")
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9000", "listen address")
	metricsListen := flag.String("metrics-listen", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	alpha := flag.Float64("alpha", 0.5, "asynchronous mixing weight α, in [0, 1]")
	dim := flag.Int("dim", 32, "model input dimension")
	hidden := flag.Int("hidden", 64, "model hidden width")
	classes := flag.Int("classes", 10, "number of classes")
	modelSeed := flag.Int64("model-seed", 1, "global model init seed (portals must match)")
	dataSeed := flag.Int64("data-seed", 7, "dataset seed (portals must match)")
	datasetSize := flag.Int("dataset-size", 4000, "synthetic dataset size")
	duration := flag.Duration("duration", 60*time.Second, "how long to serve")
	evalEvery := flag.Duration("eval-every", 5*time.Second, "evaluation period")
	checkpoint := flag.String("checkpoint", "", "server state checkpoint path: resumed on start when present, rewritten every --checkpoint-every and on exit (crash recovery)")
	checkpointEvery := flag.Duration("checkpoint-every", 5*time.Second, "periodic checkpoint interval")
	sampleEvery := flag.Duration("sample-every", 2*time.Second, "sampling period of the runtime gauges and the /dash history")
	sampleWindow := flag.Int("sample-window", 900, "sampling ticks the /dash history keeps (<= 0: the journal's default, 4096)")
	stragglerThreshold := flag.Float64("straggler-threshold", 0, "relative push-interval deviation flagging a straggler (0 = default 0.25)")
	fleetTrace := flag.String("fleet-trace", "", "write the fleet journal as a Chrome trace here on exit (optional; turns the journal on)")
	journalCap := flag.Int("journal", 0, "fleet-journal events kept on the server lane and across imported lanes (0: off, or 262144 when --fleet-trace turns the journal on); merged timeline served at /events on the metrics address")
	leaseTTL := flag.Duration("lease-ttl", 0, "membership lease TTL: portals that stay silent this long lose their session and re-sync on return (0 disables leases)")
	normGate := flag.Bool("norm-gate", false, "quarantine pushes whose update norm is an outlier against the trailing honest distribution (non-finite pushes are always quarantined)")
	normGateK := flag.Float64("norm-gate-k", 0, "norm-gate sensitivity: threshold = median + k·MAD of recent accepted push norms (0 = default 6)")
	normGateWarmup := flag.Int("norm-gate-warmup", 0, "accepted pushes observed before the norm gate arms (0 = default 16)")
	flag.Parse()

	proto := nn.NewMLP(rand.New(rand.NewSource(*modelSeed)), *dim, *hidden, *classes)
	ds := data.MNISTLike(rand.New(rand.NewSource(*dataSeed)), *datasetSize)
	_, test := ds.Split(0.8)
	tx, ty := test.Materialize()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	opts := flnet.ServerOptions{Alpha: *alpha, LeaseTTL: *leaseTTL,
		NormGate: *normGate, NormGateK: *normGateK, NormGateWarmup: *normGateWarmup}
	if capacity := *journalCap; capacity > 0 || *fleetTrace != "" {
		if capacity == 0 {
			capacity = 1 << 18
		}
		// The server takes node -1; journaling portals ship their own lanes
		// (node = portal id) in over the telemetry piggyback.
		local := journal.New(-1, capacity)
		local.SetName(journal.None, "ecofl-server")
		opts.Journal = journal.NewFleet(capacity, local)
	}
	if *checkpoint != "" {
		ck, err := flnet.LoadCheckpoint(*checkpoint)
		switch {
		case err == nil:
			opts.Resume = ck
			log.Printf("ecofl-server: resuming from %s (v%d, %d pushes, %d clients in dedup window)",
				*checkpoint, ck.Version, ck.Pushes, len(ck.LastSeq))
		case os.IsNotExist(err):
			log.Printf("ecofl-server: no checkpoint at %s yet, cold start", *checkpoint)
		default:
			log.Fatalf("ecofl-server: checkpoint: %v", err)
		}
	}
	server, err := flnet.NewServerOpts(ln, proto.FlatWeights(), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	if *checkpoint != "" {
		// Periodic checkpointing; the returned stop writes the final flush,
		// so a graceful exit loses nothing and a crash loses at most one
		// interval of pushes (their retried deliveries dedup on resume).
		stop := server.StartCheckpointing(*checkpoint, *checkpointEvery)
		defer stop()
	}
	fleet := server.Fleet()
	fleet.Straggler().SetThreshold(*stragglerThreshold, 0)
	if *fleetTrace != "" {
		defer func() {
			if err := journal.WriteChromeTraceFile(*fleetTrace, opts.Journal.WriteChromeTrace); err != nil {
				log.Printf("ecofl-server: fleet trace export: %v", err)
				return
			}
			log.Printf("ecofl-server: wrote %d fleet trace events to %s (load in chrome://tracing)",
				len(opts.Journal.Events()), *fleetTrace)
		}()
	}
	log.Printf("ecofl-server: serving on %s (α=%.2f, model %d→%d→%d)",
		server.Addr(), *alpha, *dim, *hidden, *classes)

	// Each --sample-every tick samples the runtime gauges (goroutines, heap,
	// GC pauses, on the Default registry), then records the dashboard's
	// history of the server's own registry plus the federated per-node views:
	// one metric.sample event on a recorder of its own, not the fleet journal.
	runtimeSampler := metrics.NewRuntimeSampler(metrics.Default)
	history := metrics.NewSampler(journal.New(journal.None, *sampleWindow), metrics.Default, fleet.Registry())
	sampleTicker := time.NewTicker(*sampleEvery)
	defer sampleTicker.Stop()

	if *metricsListen != "" {
		mln, err := net.Listen("tcp", *metricsListen)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		defer mln.Close()
		go http.Serve(mln, metricsMux(history, fleet))
		log.Printf("ecofl-server: metrics on http://%s/metrics, dashboard on http://%s/dash",
			mln.Addr(), mln.Addr())
	}

	// Evaluate on a ticker but stop exactly at the deadline: a plain
	// sleep-loop would overshoot --duration by up to a full --eval-every.
	deadline := time.NewTimer(*duration)
	ticker := time.NewTicker(*evalEvery)
	defer ticker.Stop()
serveLoop:
	for {
		select {
		case <-deadline.C:
			break serveLoop
		case <-sampleTicker.C:
			runtimeSampler.Sample()
			history.Sample()
		case <-ticker.C:
			sp := opts.Journal.Local().Begin()
			w, version := server.Snapshot()
			proto.SetFlatWeights(w)
			acc := proto.Accuracy(tx, ty)
			sp.End(0, "server.eval", version, journal.None, "accuracy", strconv.FormatFloat(acc, 'f', 4, 64))
			evalAccuracy.Set(acc)
			modelVersion.Set(float64(version))
			totalPushes.Set(float64(server.Pushes()))
			if *leaseTTL > 0 {
				log.Printf("ecofl-server: v%d (%d pushes), test accuracy %.1f%%, %d live sessions %v",
					version, server.Pushes(), acc*100, server.SessionCount(), server.Members())
			} else {
				log.Printf("ecofl-server: v%d (%d pushes), test accuracy %.1f%%",
					version, server.Pushes(), acc*100)
			}
		}
	}
	w, version := server.Snapshot()
	proto.SetFlatWeights(w)
	if opts.Journal != nil {
		log.Printf("ecofl-server: fleet journal holds %d events across %d node lanes",
			len(opts.Journal.Events()), opts.Journal.Nodes())
	}
	fmt.Printf("final: version %d, pushes %d, deduped %d, test accuracy %.2f%%\n",
		version, server.Pushes(), server.Deduped(), proto.Accuracy(tx, ty)*100)
}
