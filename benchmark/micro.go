package main

import (
	"math/rand"

	"ecofl/internal/experiments"
	"ecofl/internal/fl"
	"ecofl/internal/flnet"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/nn"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
	"ecofl/internal/tensor"
)

// sink keeps results of timed calls alive so the compiler cannot drop them.
var sink any

// microLayers re-times, in isolation, the public pure functions the workloads
// lean on, at the workloads' own sizes: the fedround MLP (32→64→10, batch
// 10), 100 000-weight updates with a top-1 000 delta, a 20-update in-group
// average and a 300-client grouping. Every traced run measures them, on
// whichever workload, so each has one sample per traced run.
func microLayers(p params, m map[string]float64) error {
	per := p.budget(0.008)
	rng := rand.New(rand.NewSource(p.subseed("micro")))

	a, b, dst := tensor.Randn(rng, 1, 10, 32), tensor.Randn(rng, 1, 32, 64), tensor.New(10, 64)
	m["tensor.matmul_small_s"] = perCall(per, func() { tensor.MatMulInto(dst, a, b) })
	a, b, dst = tensor.Randn(rng, 1, 256, 256), tensor.Randn(rng, 1, 256, 256), tensor.New(256, 256)
	m["tensor.matmul_256_s"] = perCall(per, func() { tensor.MatMulInto(dst, a, b) })

	net := nn.NewMLP(rng, 32, 64, 10)
	x := tensor.Randn(rng, 1, 10, 32)
	y := make([]int, 10)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	opt := &nn.SGD{LR: 0.05, Mu: 0.05, Global: net.FlatWeights()}
	step := func() { net.TrainBatch(x, y, opt) }
	m["nn.train_batch_s"] = perCall(per, step)
	m["nn.allocs_per_batch"] = allocsPerCall(200, step)

	w, ref := make([]float64, ingestWeights), make([]float64, ingestWeights)
	for i := range w {
		w[i], ref[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	global := append([]float64(nil), ref...)
	m["fl.async_mix_s"] = perCall(per, func() { fl.AsyncMix(global, w, 0.5) })
	var idx []uint32
	var vals []float64
	m["fl.topk_delta_s"] = perCall(per, func() { idx, vals = fl.TopKDelta(w, ref, fleetTopK, idx, vals) })

	updates, weights := make([][]float64, 20), make([]float64, 20)
	for i := range updates {
		updates[i] = net.FlatWeights()
		weights[i] = float64(10 + i)
	}
	m["fl.weighted_average_s"] = perCall(per, func() { sink = fl.WeightedAverage(updates, weights) })

	pop := simPopulation(p.subseed("micro/fleet"), experiments.Full)
	gr := &fl.Grouper{Lambda: 500, RT: 15, NumClasses: pop.TestClasses()}
	grng := rand.New(rand.NewSource(1))
	m["fl.grouping_s"] = perCall(per, func() { sink = gr.InitialGrouping(grng, pop.Clients, 5) })

	var buf []byte
	out := make([]float64, ingestWeights)
	m["wire.encode_raw_s"] = perCall(per, func() { buf = wire.AppendRaw(buf[:0], w) })
	var err error
	m["wire.decode_raw_s"] = perCall(per, func() { out, err = wire.ParseRaw(buf, out) })
	if err != nil {
		return err
	}
	m["wire.encode_sparse_s"] = perCall(per, func() { buf = wire.AppendSparse(buf[:0], len(w), idx, vals) })
	var pidx []uint32
	var pvals []float64
	m["wire.decode_sparse_s"] = perCall(per, func() { _, pidx, pvals, err = wire.ParseSparse(buf, pidx, pvals) })
	if err != nil {
		return err
	}
	var q flnet.Quantized
	m["wire.encode_quant_s"] = perCall(per, func() {
		flnet.QuantizeInto(w, &q)
		buf = wire.AppendQuant(buf[:0], q.Min, q.Scale, q.Data)
	})
	m["wire.decode_quant_s"] = perCall(per, func() {
		var dq flnet.Quantized
		dq.Min, dq.Scale, dq.Data, err = wire.ParseQuant(buf)
		dq.DequantizeInto(out)
	})
	if err != nil {
		return err
	}

	// A smart home's planning, which only pipeline-tcp pays, in set-up.
	orch, err := homePlan()
	if err != nil {
		return err
	}
	m["partition.orchestrate_s"] = perCall(per, func() { sink, _ = homePlan() })
	m["partition.dp_s"] = perCall(per, func() { sink, _ = partition.DynamicProgramming(orch.Config.Spec, orch.Order) })
	m["pipeline.schedule_s"] = perCall(per, func() { sink, _ = pipeline.Schedule(orch.Config) })
	return nil
}
