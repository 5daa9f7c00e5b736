package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline/runtime"
	"ecofl/internal/tensor"
)

const (
	pipeDim        = 64
	pipeClasses    = 8
	pipeBatch      = 256
	pipeMicroBatch = 16
	pipeBatches    = 4
	// pipeQualityRounds is the round (a multiple of pipeBatches, so it
	// revisits batch 0) whose loss is compared with the first round's.
	pipeQualityRounds = 400
)

var (
	pipeHidden = []int{96, 64, 48}
	pipeCuts   = []int{1, 2}
	// pipeLinkOptions are the hardened link options the self-healing
	// executor deploys (experiments.LiveFailover).
	pipeLinkOptions = runtime.LinkOptions{
		SendTimeout: 300 * time.Millisecond,
		RecvTimeout: 250 * time.Millisecond,
		RecvBudget:  1500 * time.Millisecond,
		Heartbeat:   50 * time.Millisecond,
		DialRetries: 4,
	}
)

// homePlan is the planning a smart home does before it trains: the §4.3
// device-order and micro-batch search on EfficientNet-B4 over its devices.
func homePlan() (*partition.Orchestration, error) {
	devs := []*device.Device{device.NanoH(), device.TX2Q(), device.NanoH()}
	return partition.Orchestrate(model.EfficientNet(4), devs, partition.Options{})
}

// pipe is one smart home: a 3-stage 1F1B-Sync pipeline whose inter-stage
// tensors cross TCP loopback links. flnet is not involved.
type pipe struct {
	tr     *model.Trainable
	dp     *runtime.DistPipeline
	opt    *nn.SGD
	x      []*tensor.Tensor
	y      [][]int
	single float64 // batch 0's loss on the untrained model, computed without the pipeline
	losses []float64
	busy   [][]float64 // per round, per stage
	aborts int
}

// pipeData draws labelled batches from a seeded linear teacher, so the loss
// can fall.
func pipeData(rng *rand.Rand) ([]*tensor.Tensor, [][]int) {
	teacher := tensor.Randn(rng, 1, pipeDim, pipeClasses)
	var xs []*tensor.Tensor
	var ys [][]int
	for b := 0; b < pipeBatches; b++ {
		x := tensor.Randn(rng, 1, pipeBatch, pipeDim)
		logits := tensor.MatMul(x, teacher)
		y := make([]int, pipeBatch)
		for r := range y {
			row := logits.Data[r*pipeClasses : (r+1)*pipeClasses]
			for c, v := range row {
				if v > row[y[r]] {
					y[r] = c
				}
			}
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

func setupPipeline(p params, tr *tracer) (instance, error) {
	sp := tr.begin("partition.orchestrate", -1, 0)
	_, err := homePlan()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.subseed("pipeline/model")))
	pi := &pipe{opt: &nn.SGD{LR: 0.05}}
	pi.tr = model.NewTrainableMLP(rng, "home", pipeDim, pipeHidden, pipeClasses)
	pi.x, pi.y = pipeData(rand.New(rand.NewSource(p.subseed("pipeline/data"))))
	pi.single = pi.tr.Network().Loss(pi.x[0], pi.y[0])
	if pi.dp, err = runtime.NewDistributed(pi.tr, pipeCuts, runtime.TCPLinks()); err != nil {
		return nil, err
	}
	opts := pipeLinkOptions
	opts.JitterSeed = p.subseed("pipeline/jitter")
	pi.dp.SetLinkOptions(opts)
	// The first round is part of set-up: it warms the buffer pools, and its
	// loss is the one the gradient-equivalence check reads.
	_, err = pi.op(0, 0, nil)
	return pi, err
}

// op is one sync-round. Round r trains batch r mod pipeBatches; set-up ran
// round 0, so timed op i is round i+1.
func (pi *pipe) op(_, _ int, tr *tracer) (int, error) {
	r := len(pi.losses)
	b := r % pipeBatches
	sp := tr.begin("pipeline.train_sync_round", -1, tr.opID())
	loss, err := pi.dp.TrainSyncRound(pi.x[b], pi.y[b], pipeMicroBatch, pi.opt)
	tr.end(sp)
	st := pi.dp.LastRoundStats()
	if st.Aborted {
		pi.aborts++
	}
	if err != nil {
		return 0, err
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return 0, fmt.Errorf("round %d loss is not finite", r)
	}
	pi.losses = append(pi.losses, loss)
	if tr != nil {
		pi.busy = append(pi.busy, st.StageUtilization())
	}
	return 1, nil
}

func (pi *pipe) verify(p params) (float64, []string) {
	var problems []string
	// 1F1B-Sync gradient equivalence: the pipelined first round computes the
	// loss a single device computes on the same batch and weights.
	if d := math.Abs(pi.losses[0] - pi.single); d > 1e-9 {
		problems = append(problems, fmt.Sprintf("first-round loss %.12f differs from the single-device loss %.12f by %.3g", pi.losses[0], pi.single, d))
	}
	q := p.ops(pipeQualityRounds/pipeBatches) * pipeBatches
	if len(pi.losses) <= q {
		return 0, append(problems, fmt.Sprintf("only %d of %d rounds completed", len(pi.losses), q+1))
	}
	if p.scale >= 1 && pi.losses[q] >= pi.losses[0] {
		problems = append(problems, fmt.Sprintf("loss did not fall: %.6f after %d rounds, %.6f at first", pi.losses[q], q, pi.losses[0]))
	}
	return 1 - pi.losses[q]/pi.losses[0], problems
}

// baseline times rounds of the same model and data through another runner
// and returns samples per second.
func (pi *pipe) baseline(rounds int, round func(x *tensor.Tensor, y []int) error) (float64, error) {
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		if err := round(pi.x[r%pipeBatches], pi.y[r%pipeBatches]); err != nil {
			return 0, err
		}
	}
	return float64(rounds*pipeBatch) / time.Since(t0).Seconds(), nil
}

func (pi *pipe) layers(p params, seg *segment, m map[string]float64) error {
	rounds := float64(seg.ops)
	var idle float64
	for s := 0; s <= len(pipeCuts); s++ {
		var busy float64
		for _, u := range pi.busy {
			busy += u[s]
		}
		busy /= float64(len(pi.busy))
		m[fmt.Sprintf("pipeline.stage_busy_share.%d", s)] = busy
		idle += (1 - busy) / float64(len(pipeCuts)+1)
	}
	m["pipeline.idle_share"] = idle
	m["pipeline.allocs_per_round"] = seg.mallocs / rounds
	m["pipeline.aborted_rounds"] = float64(pi.aborts)
	tcp := rounds * pipeBatch / seg.wall
	m["fl.samples_per_s"] = tcp

	// The same rounds over in-process pipes (what the links cost) and on one
	// device with no pipeline at all (what pipelining buys on this host).
	n := p.ops(200)
	opt := &nn.SGD{LR: 0.05}
	piped, err := runtime.NewDistributed(pi.tr.Clone(), pipeCuts, runtime.PipeLinks())
	if err != nil {
		return err
	}
	piped.SetLinkOptions(pipeLinkOptions)
	pipeRate, err := pi.baseline(n, func(x *tensor.Tensor, y []int) error {
		_, err := piped.TrainSyncRound(x, y, pipeMicroBatch, opt)
		return err
	})
	if err != nil {
		return err
	}
	net := pi.tr.Clone().Network()
	singleRate, _ := pi.baseline(n, func(x *tensor.Tensor, y []int) error {
		net.TrainBatch(x, y, opt)
		return nil
	})
	m["pipeline.pipe_links_samples_per_s"] = pipeRate
	m["pipeline.link_overhead_share"] = pipeRate/tcp - 1
	m["pipeline.single_device_samples_per_s"] = singleRate
	m["pipeline.speedup_vs_single"] = tcp / singleRate
	return nil
}

func (pi *pipe) close() {}
