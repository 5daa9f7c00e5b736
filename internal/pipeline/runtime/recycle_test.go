package runtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/leakcheck"
	"ecofl/internal/tensor"
)

// The stage workers return tensors to a pool the whole process shares, so a
// tensor returned while something still reads it — a later layer, a cache, a
// frame not yet serialized — or returned twice does not fail where the
// mistake is: it is overwritten by whichever goroutine draws it next, and
// which one that is depends on scheduling. These tests hold DistPipeline
// against the sequential reference (runtime_test.go), which returns nothing
// to the pool and so cannot go wrong that way, bit for bit; scripts/ci.sh
// repeats them under the race detector.

// recyclingCase is one model cut so that particular layers sit at stage edges.
type recyclingCase struct {
	name  string
	input []int // per-sample shape
	build func(seed int64) *model.Trainable
	cuts  []int
}

func evalDropout() nn.Layer { return &nn.Dropout{P: 0.5, Rng: rand.New(rand.NewSource(1))} }

func handTrainable(name string, blocks ...[]nn.Layer) *model.Trainable {
	return &model.Trainable{Spec: &model.Spec{Name: name}, Blocks: blocks}
}

// recyclingCases put every layer type first and last in a stage, with every
// stage cut its own block.
var recyclingCases = []recyclingCase{
	{
		// Flatten first on stage 0 (a view of a view of the caller's batch),
		// a Flatten-only stage (first and last), an eval-Dropout-only stage
		// (output and dx are the very tensors it was given), Tanh last (its
		// output is its own cache), eval-Dropout first with Flatten last.
		name:  "views",
		input: []int{2, 3, 3},
		build: func(seed int64) *model.Trainable {
			rng := rand.New(rand.NewSource(seed))
			return handTrainable("views",
				[]nn.Layer{nn.Flatten{}, nn.NewDense(rng, 18, 14), nn.ReLU{}},
				[]nn.Layer{nn.Flatten{}},
				[]nn.Layer{evalDropout()},
				[]nn.Layer{nn.NewDense(rng, 14, 12), nn.Tanh{}},
				[]nn.Layer{evalDropout(), nn.NewDense(rng, 12, 10), nn.ReLU{}, nn.Flatten{}},
				[]nn.Layer{nn.NewDense(rng, 10, 4)})
		},
		cuts: []int{1, 2, 3, 4, 5},
	},
	{
		// Conv2D first on the caller's batch and on a received tensor, a
		// Conv2D-only and a Residual-only stage, MaxPool2D last and first
		// (its cache keeps the input's Shape slice), BatchNorm last and first.
		name:  "cnn",
		input: []int{1, 8, 8},
		build: func(seed int64) *model.Trainable {
			rng := rand.New(rand.NewSource(seed))
			return handTrainable("cnn",
				[]nn.Layer{nn.NewConv2D(rng, 1, 3, 3, 1, 1), nn.ReLU{}, nn.MaxPool2D{K: 2, Stride: 2}},
				[]nn.Layer{nn.NewConv2D(rng, 3, 3, 3, 1, 1)},
				[]nn.Layer{&nn.Residual{Inner: []nn.Layer{nn.NewConv2D(rng, 3, 3, 3, 1, 1), nn.Tanh{}}}},
				[]nn.Layer{nn.MaxPool2D{K: 2, Stride: 2}, nn.Flatten{}, nn.NewBatchNorm(12)},
				[]nn.Layer{nn.NewBatchNorm(12), nn.NewDense(rng, 12, 4)})
		},
		cuts: []int{1, 2, 3, 4},
	},
	{
		name:  "dense-relu",
		input: []int{10},
		build: func(seed int64) *model.Trainable {
			return model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "mlp", 10, []int{14, 12, 10}, 4)
		},
		cuts: []int{1, 2, 3},
	},
}

// batches draws n labelled mini-batches for a model.
func (c recyclingCase) batches(seed int64, n, rows int) (xs []*tensor.Tensor, ys [][]int) {
	rng := rand.New(rand.NewSource(seed))
	shape := append([]int{rows}, c.input...)
	for b := 0; b < n; b++ {
		y := make([]int, rows)
		for i := range y {
			y[i] = rng.Intn(4)
		}
		xs, ys = append(xs, tensor.Randn(rng, 1, shape...)), append(ys, y)
	}
	return xs, ys
}

// sameBits reports the first parameter at which two networks differ.
func sameBits(got, want *nn.Network) error {
	g, w := got.FlatWeights(), want.FlatWeights()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return fmt.Errorf("weight %d is %v, want %v", i, g[i], w[i])
		}
		if math.IsNaN(w[i]) {
			return fmt.Errorf("weight %d is NaN; the comparison pins nothing", i)
		}
	}
	return nil
}

// TestRecyclingStagesMatchReference trains every case over in-process pipes
// and over TCP at once — the pipelines share the pool, so a buffer one of
// them returns early lands in another's round as well as its own — and holds
// each to the sequential reference on the same model: every loss and, at the
// end, every weight bit-identical. 26 rows in micro-batches of 4 leave an
// uneven last micro-batch of 2.
func TestRecyclingStagesMatchReference(t *testing.T) {
	const seed, rounds, rows, mbs = 5, 24, 26, 4
	var wg sync.WaitGroup
	for _, c := range recyclingCases {
		for name, dial := range map[string]Dialer{"pipe": PipeLinks(), "tcp": TCPLinks()} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fail := func(format string, args ...any) {
					t.Errorf("%s over %s: %s", c.name, name, fmt.Sprintf(format, args...))
				}
				tr := c.build(seed)
				ref := newSequential(tr.Clone())
				dp, err := NewDistributed(tr, c.cuts, dial)
				if err != nil {
					fail("%v", err)
					return
				}
				xs, ys := c.batches(seed, 3, rows)
				kept := make([]*tensor.Tensor, len(xs))
				for i, x := range xs {
					kept[i] = x.Clone()
				}
				optRef, optDist := &nn.SGD{LR: 0.05, Momentum: 0.5}, &nn.SGD{LR: 0.05, Momentum: 0.5}
				for r := 0; r < rounds; r++ {
					x, y := xs[r%len(xs)], ys[r%len(xs)]
					want, err := ref.TrainSyncRound(x, y, mbs, optRef)
					if err != nil {
						fail("reference round %d: %v", r, err)
						return
					}
					got, err := dp.TrainSyncRound(x, y, mbs, optDist)
					if err != nil {
						fail("round %d: %v", r, err)
						return
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						fail("round %d: loss %v, sequential %v", r, got, want)
						return
					}
				}
				if err := sameBits(dp.Network(), ref.Network()); err != nil {
					fail("after %d rounds: %v", rounds, err)
				}
				for i, x := range xs {
					if !tensor.Equal(x, kept[i]) {
						fail("the caller's batch %d was written to", i)
					}
				}
			}()
		}
	}
	wg.Wait()
}

// severedOnce dials clean links, except that the first time link `link` is
// dialed one of its endpoints fails every Write after the first `after`.
func severedOnce(link int, upstream bool, after int) Dialer {
	var done atomic.Bool
	return func(i int) (net.Conn, net.Conn, error) {
		up, down := net.Pipe()
		if i == link && done.CompareAndSwap(false, true) {
			if upstream {
				return &failAfterConn{Conn: up, left: after}, down, nil
			}
			return up, &failAfterConn{Conn: down, left: after}, nil
		}
		return up, down, nil
	}
}

// TestAbortThenRetryWithRecycling: what an aborted round had in flight goes
// to the garbage collector, not to the pool, whether a link fault or a
// protocol violation ended it.
func TestAbortThenRetryWithRecycling(t *testing.T) {
	t.Run("severed-link", severedLinkThenRetry)
	t.Run("early-gradient", earlyGradientAborts)
}

// severedLinkThenRetry severs each link, in each direction, at every
// micro-batch index in turn. The round must abort without touching the
// weights; the same pipeline must then train the same batch on fresh links —
// its scratch from the aborted round is gone — and stay bit-identical to a
// run that never saw a fault.
func severedLinkThenRetry(t *testing.T) {
	const seed, rows, mbs, after = 7, 22, 4, 3 // 6 micro-batches, the last of 2
	c := recyclingCases[0]
	xs, ys := c.batches(seed, 1, rows)
	x, y := xs[0], ys[0]

	ref := newSequential(c.build(seed))
	optRef := &nn.SGD{LR: 0.05}
	var want []float64
	for r := 0; r <= after; r++ {
		loss, err := ref.TrainSyncRound(x, y, mbs, optRef)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, loss)
	}

	baseline := leakcheck.Baseline()
	for link := 0; link < len(c.cuts); link++ {
		for _, upstream := range []bool{true, false} {
			for k := 0; k < (rows+mbs-1)/mbs; k++ {
				tr := c.build(seed)
				dp, err := NewDistributed(tr, c.cuts, severedOnce(link, upstream, k))
				if err != nil {
					t.Fatal(err)
				}
				before := dp.Network().FlatWeights()
				opt := &nn.SGD{LR: 0.05}
				var re *RoundError
				if _, err := dp.TrainSyncRound(x, y, mbs, opt); !errors.As(err, &re) {
					t.Fatalf("link %d upstream=%v severed after %d frames: want a *RoundError, got %v", link, upstream, k, err)
				}
				for i, w := range dp.Network().FlatWeights() {
					if w != before[i] {
						t.Fatalf("link %d upstream=%v k=%d: the aborted round changed weight %d", link, upstream, k, i)
					}
				}
				for r, w := range want {
					got, err := dp.TrainSyncRound(x, y, mbs, opt)
					if err != nil {
						t.Fatalf("link %d upstream=%v k=%d: retry round %d: %v", link, upstream, k, r, err)
					}
					if math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("link %d upstream=%v k=%d: retry round %d loss %v, fault-free %v", link, upstream, k, r, got, w)
					}
				}
				if err := sameBits(dp.Network(), ref.Network()); err != nil {
					t.Fatalf("link %d upstream=%v k=%d: after the retry: %v", link, upstream, k, err)
				}
			}
		}
	}
	leakcheck.Check(t, baseline)
}

// earlyGradientAborts scripts stage 0's upstream neighbour as a peer that
// answers without listening: it writes gradient 0, 1, 2, … and never reads an
// activation. Stage 0's writer therefore parks with activation 0 framed and
// activation 1 still queued, and gradient 1 arrives for a segment output the
// up link has yet to read — which Backward would return to the pool. The
// stage must refuse it: the round aborts with the protocol error, and the
// pool holds no tensor twice afterwards.
func earlyGradientAborts(t *testing.T) {
	const seed, rows, mbs, hidden = 11, 12, 4, 14
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "early", 10, []int{hidden}, 4)
	peerDone := make(chan struct{})
	scripted := func(int) (net.Conn, net.Conn, error) {
		up, peer := net.Pipe()
		down, idle := net.Pipe() // stage 1 hears nothing until the abort closes its end
		go func() {
			defer close(peerDone)
			defer idle.Close()
			defer peer.Close()
			for micro := 0; ; micro++ {
				if _, err := peer.Write(frame(micro, []int{mbs, hidden}, make([]float64, mbs*hidden)...)); err != nil {
					return
				}
			}
		}()
		return up, down, nil
	}
	dp, err := NewDistributed(tr, []int{1}, scripted)
	if err != nil {
		t.Fatal(err)
	}
	// The violation is what must end the round; the deadline only bounds the
	// test should it go unnoticed (stage 1 waits for an activation for ever).
	dp.SetLinkOptions(LinkOptions{RecvTimeout: 200 * time.Millisecond})
	baseline := leakcheck.Baseline()
	x, y := makeData(rand.New(rand.NewSource(seed)), rows, 10, 4)
	before := dp.Network().FlatWeights()
	_, err = dp.TrainSyncRound(x, y, mbs, &nn.SGD{LR: 0.1})
	var re *RoundError
	if !errors.As(err, &re) || !errors.Is(err, errProtocol) {
		t.Fatalf("want a *RoundError carrying the protocol violation, got %v", err)
	}
	<-peerDone
	leakcheck.Check(t, baseline)
	for i, w := range dp.Network().FlatWeights() {
		if w != before[i] {
			t.Fatalf("the aborted round changed weight %d", i)
		}
	}
	// Every size the round moved through the pool: a tensor returned twice
	// would be handed out twice.
	for _, n := range []int{mbs * 10, mbs * hidden, mbs * 4, 10 * hidden, hidden * 4} {
		seen := map[*tensor.Tensor]bool{}
		for i := 0; i < 64; i++ {
			b := tensor.GetBufUninit(n)
			if seen[b] {
				t.Fatalf("the pool handed out one %d-element tensor twice", n)
			}
			seen[b] = true
		}
	}
}
