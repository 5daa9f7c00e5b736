// Prototype: the complete Eco-FL system over real network connections.
//
// Four smart homes each train a shared CNN through a 3-stage 1F1B-Sync
// pipeline whose inter-stage activations and gradients travel over genuine
// TCP loopback connections (the in-home device links), and federate through
// an Eco-FL server reached over TCP (the wide-area link), which applies
// asynchronous staleness-aware aggregation. Everything is real computation
// and real sockets — the laptop-scale version of the paper's testbed.
//
//	go run ./examples/prototype
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"

	"ecofl/internal/data"
	"ecofl/internal/flnet"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/pipeline/runtime"
)

const (
	homes  = 4
	rounds = 10
)

func main() {
	rng := rand.New(rand.NewSource(21))
	ds := data.MNISTLike(rng, 2000)
	_, test := ds.Split(0.8)
	shards := data.PartitionByClasses(rng, ds, homes, 2)

	// Shared architecture: every home trains the same block-structured net.
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(1)), "proto", ds.Dim, []int{64, 48, 32}, ds.NumClasses)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := flnet.NewServer(ln, tr.Network().FlatWeights(), 0.5)
	defer server.Close()
	fmt.Printf("Eco-FL server listening on %s\n", server.Addr())

	var wg sync.WaitGroup
	for id := 0; id < homes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := runHome(id, server.Addr(), tr, shards[id]); err != nil {
				log.Printf("home %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()

	w, version := server.Snapshot()
	global := tr.Network()
	global.SetFlatWeights(w)
	tx, ty := test.Materialize()
	fmt.Printf("\nserver aggregated %d updates (model version %d)\n", server.Pushes(), version)
	fmt.Printf("global test accuracy: %.1f%%\n", global.Accuracy(tx, ty)*100)
}

// runHome is one participant: a portal with a 3-stage in-home pipeline.
func runHome(id int, serverAddr string, proto *model.Trainable, shard *data.Subset) error {
	// Independent copy of the architecture for this home.
	local := proto.Clone()
	pipe, err := runtime.NewDistributed(local, []int{1, 2}, runtime.TCPLinks())
	if err != nil {
		return err
	}
	defer pipe.Close()
	client, err := flnet.Dial(serverAddr, id)
	if err != nil {
		return err
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(int64(50 + id)))
	w, version, err := client.Pull()
	if err != nil {
		return err
	}
	for round := 0; round < rounds; round++ {
		pipe.Network().SetFlatWeights(w)
		opt := &nn.SGD{LR: 0.05, Mu: 0.05, Global: w}
		var loss float64
		batches := shard.Batches(rng, 32)
		for _, b := range batches {
			l, err := pipe.TrainSyncRound(b.X, b.Y, 8, opt) // 4 micro-batches over TCP
			if err != nil {
				return err
			}
			loss += l
		}
		w, version, err = client.Push(pipe.Network().FlatWeights(), shard.Len(), version)
		if err != nil {
			return err
		}
		fmt.Printf("home %d round %d: local loss %.3f (pushed → v%d)\n",
			id, round+1, loss/float64(len(batches)), version)
	}
	return nil
}
