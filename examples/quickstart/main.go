// Quickstart: train a model with a real 3-stage 1F1B-Sync pipeline.
//
// This example builds a block-structured network, splits it into three
// pipeline stages, and trains it on synthetic data with Eco-FL's
// memory-efficient synchronous pipeline — real forward/backward math, one
// goroutine per stage, activations and gradients crossing in-process links
// as the same binary frames a TCP link carries. Because 1F1B-Sync is
// synchronous, the result is identical to training the whole model on one
// device, just pipelined.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ecofl/internal/data"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/pipeline/runtime"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// A 10-class task with 32 features (a stand-in for Fashion-MNIST).
	ds := data.FashionLike(rng, 3000)
	train, test := ds.Split(0.85)

	// A 4-block MLP; each block can become a pipeline stage.
	tr := model.NewTrainableMLP(rng, "quickstart", ds.Dim, []int{96, 64, 48}, ds.NumClasses)
	fmt.Printf("model: %s, %d parameters in %d blocks\n",
		tr.Spec.Name, tr.Network().NumParams(), len(tr.Blocks))

	// Split after blocks 1 and 2 → a 3-stage pipeline: in a smart home,
	// each stage would live on a different trusted device.
	pipe, err := runtime.NewDistributed(tr, []int{1, 2}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %d stages, micro-batch size 16\n\n", pipe.NumStages())

	opt := &nn.SGD{LR: 0.05, Momentum: 0.9}
	tx, ty := test.Materialize()
	for epoch := 1; epoch <= 8; epoch++ {
		var loss float64
		batches := train.Batches(rng, 64)
		for _, b := range batches {
			l, err := pipe.TrainSyncRound(b.X, b.Y, 16, opt) // 4 micro-batches per sync-round
			if err != nil {
				log.Fatal(err)
			}
			loss += l
		}
		fmt.Printf("epoch %d: loss %.4f, test accuracy %.1f%%\n",
			epoch, loss/float64(len(batches)), pipe.Network().Accuracy(tx, ty)*100)
	}
}
