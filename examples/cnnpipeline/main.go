// Cnnpipeline: train a real CNN through the self-healing pipeline executor
// over throttled TCP links, and print the profile the pipeline measured of
// itself.
//
// This example closes the §4 loop on a genuine convolutional model: the
// Eq. 1 partitioner splits the network over two heterogeneous devices, the
// stages train real image data over TCP loopback links paced to the paper's
// 100 Mbps in-home wireless, and the running pipeline's own estimate of its
// stages and links — §4.2's profile, read off the rounds it trains — is what
// sizes each stage's residency (Eq. 3) and what any re-plan partitions by.
//
//	go run ./examples/cnnpipeline
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"ecofl/internal/adaptive/executor"
	"ecofl/internal/data"
	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline/runtime"
)

func main() {
	rng := rand.New(rand.NewSource(13))
	ds := data.ImageLike(rng, 1200, 16, 4, 0.5)
	train, test := ds.Split(0.85)

	tr := model.MicroEfficientNet(rand.New(rand.NewSource(1)), 1, 16, ds.NumClasses)
	fmt.Printf("model: %s — %d conv/residual blocks, %d parameters\n",
		tr.Spec.Name, len(tr.Blocks), tr.Network().NumParams())

	const mbs = 8
	exec, err := executor.New(executor.Config{
		Trainable:      tr,
		Devices:        []*device.Device{device.TX2Q(), device.NanoH()},
		MicroBatchSize: mbs,
		Links:          runtime.ThrottledLinks(runtime.TCPLinks(), device.Bandwidth100Mbps, time.Millisecond),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntraining the CNN pipeline over throttled TCP links:")
	opt := &nn.SGD{LR: 0.01}
	tx, ty := test.Materialize()
	for epoch := 1; epoch <= 4; epoch++ {
		var loss float64
		batches := train.Batches(rng, 32)
		for _, b := range batches {
			l, err := exec.TrainRound(b.X, b.Y, opt)
			if err != nil {
				log.Fatal(err)
			}
			loss += l
		}
		fmt.Printf("  epoch %d: loss %.4f, test accuracy %.1f%%\n",
			epoch, loss/float64(len(batches)), tr.Network().Accuracy(tx, ty)*100)
	}

	stages, times := exec.Estimate()
	rates, bandwidths, err := partition.Measured(tr.Spec, partition.Cuts(stages), mbs, times)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured profile (per micro-batch of %d, smoothed over the rounds):\n", mbs)
	var fwd, bwd float64
	for s, st := range stages {
		t := times[s]
		fwd, bwd = fwd+t.Tf, bwd+t.Tb
		fmt.Printf("  stage %d on %-7s blocks [%d,%d)  fwd %8.3f ms  bwd %8.3f ms  %6.2f GFLOP/s\n",
			s, st.Device.Name, st.From, st.To, t.Tf*1e3, t.Tb*1e3, rates[s]/1e9)
		if s < len(bandwidths) {
			fmt.Printf("  link %d  activation %6.3f ms  gradient %6.3f ms  %6.2f MB/s\n",
				s, t.CommF*1e3, t.CommB*1e3, bandwidths[s]/1e6)
		}
	}
	fmt.Printf("measured backward/forward ratio: %.2f (the cost model assumes %.1f)\n", bwd/fwd, model.BackwardFactor)
	st := exec.Stats()
	fmt.Printf("%d rounds, %d re-planned migrations, %d bytes shipped\n", st.Rounds, st.Migrations, st.MigratedBytes)
}
