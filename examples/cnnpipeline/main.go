// Cnnpipeline: profile a real CNN, partition it from the measured costs,
// and train it through a distributed pipeline over throttled TCP links.
//
// This example closes the full §4 loop on a genuine convolutional model:
// the profiler times every block's real forward/backward execution (§4.2's
// profiling phase), the Eq. 1 partitioner splits the network using those
// measurements, and the resulting stages train real image data over TCP
// loopback links paced to the paper's 100 Mbps in-home wireless.
//
//	go run ./examples/cnnpipeline
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"ecofl/internal/data"
	"ecofl/internal/device"
	"ecofl/internal/nn"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline/runtime"
	"ecofl/internal/profiler"

	"ecofl/internal/model"
)

func main() {
	rng := rand.New(rand.NewSource(13))
	ds := data.ImageLike(rng, 1200, 16, 4, 0.5)
	train, test := ds.Split(0.85)

	tr := model.MicroEfficientNet(rand.New(rand.NewSource(1)), 1, 16, ds.NumClasses)
	fmt.Printf("model: %s — %d conv/residual blocks, %d parameters\n",
		tr.Spec.Name, len(tr.Blocks), tr.Network().NumParams())

	// §4.2 profiling phase: time each block on real execution.
	prof, err := profiler.Profile(rng, tr, 16, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmeasured block profile (batch 16):")
	for _, b := range prof.Blocks {
		fmt.Printf("  %-8s fwd %8v  bwd %8v  act %6.1f KB/sample  params %7.1f KB\n",
			b.Name, b.FwdTime.Round(10*time.Microsecond), b.BwdTime.Round(10*time.Microsecond),
			b.ActivationBytes/1e3, b.ParamBytes/1e3)
	}
	fmt.Printf("measured backward/forward ratio: %.2f (model assumes %.1f)\n",
		prof.MeasuredBackwardFactor(), model.BackwardFactor)

	// Partition the MEASURED spec across two heterogeneous devices.
	spec := prof.Spec(tr.Spec.Name+"-measured", 100e9)
	devs := []*device.Device{device.TX2Q(), device.NanoH()}
	plan, err := partition.DynamicProgramming(spec, devs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npartition from measured costs:")
	for i, st := range plan.Stages {
		fmt.Printf("  stage %d on %-7s blocks [%d,%d)\n", i, st.Device.Name, st.From, st.To)
	}

	// Train through a distributed pipeline on 100 Mbps-paced TCP links.
	cuts := plan.Cuts()
	pipe, err := runtime.NewDistributed(tr, cuts,
		runtime.ThrottledLinks(runtime.TCPLinks(), device.Bandwidth100Mbps, time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()
	fmt.Printf("\ntraining %d-stage CNN pipeline over throttled TCP links:\n", pipe.NumStages())
	opt := &nn.SGD{LR: 0.01}
	tx, ty := test.Materialize()
	for epoch := 1; epoch <= 4; epoch++ {
		var loss float64
		batches := train.Batches(rng, 32)
		for _, b := range batches {
			l, err := pipe.TrainSyncRound(b.X, b.Y, 8, opt)
			if err != nil {
				log.Fatal(err)
			}
			loss += l
		}
		fmt.Printf("  epoch %d: loss %.4f, test accuracy %.1f%%\n",
			epoch, loss/float64(len(batches)), pipe.Network().Accuracy(tx, ty)*100)
	}
}
