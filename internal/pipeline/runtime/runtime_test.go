package runtime

import (
	"math"
	"math/rand"
	"testing"

	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/tensor"
)

func makeData(rng *rand.Rand, n, dim, classes int) (*tensor.Tensor, []int) {
	x := tensor.Randn(rng, 1, n, dim)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % classes
		x.Data[i*dim+labels[i]%dim] += 2.5
	}
	return x, labels
}

// sequential is the reference the executor is held to bit for bit: one
// 1F1B-Sync round written as a loop over the whole network — ZeroGrads, then
// per micro-batch Forward, SoftmaxCrossEntropy, the loss gradient scaled by
// the micro-batch's share of the rows, Backward, and one optimizer step at
// the end. It shares no code with the executor and returns nothing to the
// tensor pool, so a tensor the stages recycle too early cannot reach it.
type sequential struct{ net *nn.Network }

func newSequential(tr *model.Trainable) sequential { return sequential{tr.Network()} }

func (r sequential) Network() *nn.Network { return r.net }

func (r sequential) TrainSyncRound(x *tensor.Tensor, labels []int, mbs int, opt *nn.SGD) (float64, error) {
	rows, sampleLen := x.Rows(), x.Cols()
	r.net.ZeroGrads()
	var loss float64
	for start := 0; start < rows; start += mbs {
		end := min(start+mbs, rows)
		xi := &tensor.Tensor{Shape: append([]int{end - start}, x.Shape[1:]...), Data: x.Data[start*sampleLen : end*sampleLen]}
		out, caches := r.net.Forward(xi)
		l, dy := nn.SoftmaxCrossEntropy(out, labels[start:end])
		dy.Scale(float64(end-start) / float64(rows))
		r.net.Backward(caches, dy)
		loss += l * float64(end-start)
	}
	opt.Step(r.net)
	return loss / float64(rows), nil
}

// The headline property of 1F1B-Sync: pipelined training applies the same
// update as sequential full-mini-batch training — no weight staleness.
func TestGradientEquivalenceWithSequential(t *testing.T) {
	for _, stages := range []int{2, 3, 4} {
		seed := int64(100 + stages)
		trSeq := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "seq", 12, []int{16, 14, 10, 8}, 4)
		trPipe := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "pipe", 12, []int{16, 14, 10, 8}, 4)

		cuts := make([]int, stages-1)
		for i := range cuts {
			cuts[i] = i + 1
		}
		p, err := NewDistributed(trPipe, cuts, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		x, labels := makeData(rng, 24, 12, 4)

		seqNet := trSeq.Network()
		optSeq := &nn.SGD{LR: 0.05}
		optPipe := &nn.SGD{LR: 0.05}
		for step := 0; step < 5; step++ {
			lossSeq := seqNet.TrainBatch(x, labels, optSeq)
			lossPipe, err := p.TrainSyncRound(x, labels, 6, optPipe)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lossSeq-lossPipe) > 1e-9 {
				t.Fatalf("%d stages step %d: loss %v vs %v", stages, step, lossSeq, lossPipe)
			}
		}
		ws := seqNet.FlatWeights()
		wp := p.Network().FlatWeights()
		for i := range ws {
			if math.Abs(ws[i]-wp[i]) > 1e-9 {
				t.Fatalf("%d stages: weight %d diverged: %v vs %v", stages, i, ws[i], wp[i])
			}
		}
	}
}

func TestUnevenMicroBatches(t *testing.T) {
	// 23 samples with mbs 6 → micro-batches of 6,6,6,5; the weighted mean
	// must still match sequential training.
	seed := int64(55)
	trSeq := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "seq", 8, []int{10, 10}, 3)
	trPipe := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "pipe", 8, []int{10, 10}, 3)
	p, err := NewDistributed(trPipe, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	x, labels := makeData(rng, 23, 8, 3)
	lossSeq := trSeq.Network().TrainBatch(x, labels, &nn.SGD{LR: 0.1})
	lossPipe, err := p.TrainSyncRound(x, labels, 6, &nn.SGD{LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lossSeq-lossPipe) > 1e-9 {
		t.Fatalf("uneven micro-batches: loss %v vs %v", lossSeq, lossPipe)
	}
	if !tensor.AlmostEqual(
		&tensor.Tensor{Shape: []int{trSeq.Network().NumParams()}, Data: trSeq.Network().FlatWeights()},
		&tensor.Tensor{Shape: []int{p.Network().NumParams()}, Data: p.Network().FlatWeights()}, 1e-9) {
		t.Fatal("weights diverged with uneven micro-batches")
	}
}

func TestPipelineLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := model.NewTrainableMLP(rng, "learn", 10, []int{20, 16}, 4)
	p, err := NewDistributed(tr, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, labels := makeData(rng, 40, 10, 4)
	opt := &nn.SGD{LR: 0.1}
	first, err := p.TrainSyncRound(x, labels, 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 60; i++ {
		last, err = p.TrainSyncRound(x, labels, 8, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last > first/2 {
		t.Fatalf("pipelined training failed to learn: %v → %v", first, last)
	}
	if acc := p.Network().Accuracy(x, labels); acc < 0.9 {
		t.Fatalf("accuracy %v < 0.9", acc)
	}
}

func TestSingleStagePipelineDegeneratesToSequential(t *testing.T) {
	seed := int64(77)
	trSeq := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "seq", 6, []int{8}, 3)
	trPipe := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "pipe", 6, []int{8}, 3)
	p, err := NewDistributed(trPipe, nil, nil) // no cuts → 1 stage, no links
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x, labels := makeData(rng, 12, 6, 3)
	l1 := trSeq.Network().TrainBatch(x, labels, &nn.SGD{LR: 0.2})
	l2, err := p.TrainSyncRound(x, labels, 12, &nn.SGD{LR: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l1-l2) > 1e-12 {
		t.Fatalf("single stage with one micro-batch must match exactly: %v vs %v", l1, l2)
	}
}
