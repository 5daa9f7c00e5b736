package runtime_test

import (
	"fmt"
	"math/rand"

	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/pipeline/runtime"
	"ecofl/internal/tensor"
)

// Train one sync-round through a 3-stage pipeline: the flush update is
// identical to sequential training, so pipelining is purely an execution
// strategy.
func ExampleDistPipeline_TrainSyncRound() {
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(1)), "demo", 8, []int{12, 10}, 3)
	pipe, err := runtime.NewDistributed(tr, []int{1, 2}, nil)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, 12, 8)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = i % 3
	}
	loss, err := pipe.TrainSyncRound(x, labels, 4, &nn.SGD{LR: 0.1})
	if err != nil {
		panic(err)
	}
	fmt.Println("stages:", pipe.NumStages())
	fmt.Println("positive loss:", loss > 0)
	// Output:
	// stages: 3
	// positive loss: true
}
