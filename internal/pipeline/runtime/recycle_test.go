package runtime

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/leakcheck"
	"ecofl/internal/pipeline"
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

func handTrainable(name string, input []int, blocks ...[]nn.Layer) *model.Trainable {
	return (&model.Trainable{Spec: &model.Spec{Name: name}, InputShape: input, Blocks: blocks}).Clone()
}

// flat is a view layer: it reshapes each sample to one row and hands on the
// storage it was given, its input forward and its upstream gradient backward.
// No layer the program builds is a view, but nn.Layer is an interface and
// stage 0's micro-batches are views of the caller's batch, so the stages'
// release rule must hold for one; flat is the fixture.
type flat struct{}

func (flat) Forward(x *tensor.Tensor, _ int) (*tensor.Tensor, nn.Cache) {
	return &tensor.Tensor{Shape: []int{x.Shape[0], x.Len() / x.Shape[0]}, Data: x.Data}, slices.Clone(x.Shape)
}

func (flat) Backward(c nn.Cache, dy *tensor.Tensor, _ int) *tensor.Tensor {
	return &tensor.Tensor{Shape: c.([]int), Data: dy.Data}
}

func (flat) Params() []*nn.Param { return nil }

func (flat) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

func (flat) Clone() nn.Layer { return flat{} }

// recyclingCases put every layer type first and last in a stage, with every
// stage cut its own block.
var recyclingCases = []recyclingCase{
	{
		// flat first on stage 0 (a view of the caller's batch), two
		// flat-only stages in a row (first and last; output and dx are
		// views of what they were given), ReLU last, flat first on a
		// received tensor with flat last.
		name:  "views",
		input: []int{2, 3, 3},
		build: func(seed int64) *model.Trainable {
			rng := rand.New(rand.NewSource(seed))
			return handTrainable("views", []int{2, 3, 3},
				[]nn.Layer{flat{}, nn.NewDense(rng, 18, 14), nn.ReLU{}},
				[]nn.Layer{flat{}},
				[]nn.Layer{flat{}},
				[]nn.Layer{nn.NewDense(rng, 14, 12), nn.ReLU{}},
				[]nn.Layer{flat{}, nn.NewDense(rng, 12, 10), nn.ReLU{}, flat{}},
				[]nn.Layer{nn.NewDense(rng, 10, 4)})
		},
		cuts: []int{1, 2, 3, 4, 5},
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

// wideCase's dense products, 4 × 96 · 96 × 96, clear the fan-out bar: a
// stage granted a width above 1 splits them across the worker pool, which
// the other cases' products are too small to reach.
var wideCase = recyclingCase{
	name:  "wide",
	input: []int{96},
	build: func(seed int64) *model.Trainable {
		return model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "wide", 96, []int{96, 96}, 4)
	},
	cuts: []int{1, 2},
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
				kept := make([][]float64, len(xs))
				for i, x := range xs {
					kept[i] = slices.Clone(x.Data)
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
					if !slices.Equal(x.Data, kept[i]) {
						fail("the caller's batch %d was written to", i)
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestResidencyKeepsWeightsBitIdentical trains every case at three
// residencies through the sizing seam — K = S−s, K = 2(S−s)−1, and K = m−1
// on every stage but the last — at stage widths 1, 2 and 4, set on the
// stages' networks, over in-process pipes and over TCP at once, and holds
// each to the sequential reference: every loss and, at the end, every weight
// bit-identical. Backward ops run in ascending micro-batch order under any K,
// so how many forwards a stage keeps in flight cannot move a bit, and the
// kernels are bit-identical at any width. In wideCase, stages granted a width
// above 1 fan out onto the one worker pool at once (NewDistributed grants 1 a
// stage on a box of fewer cores than stages). 26 rows in micro-batches of 4
// are 7 micro-batches.
func TestResidencyKeepsWeightsBitIdentical(t *testing.T) {
	const seed, rounds, rows, mbs, m = 9, 8, 26, 4, 7
	shapes := map[string]func(S, s int) int{
		"S-s":      func(S, s int) int { return S - s },
		"2(S-s)-1": func(S, s int) int { return 2*(S-s) - 1 },
		"m-1": func(S, s int) int {
			if s == S-1 {
				return 1
			}
			return m - 1
		},
	}
	var wg sync.WaitGroup
	for _, c := range append(slices.Clip(recyclingCases), wideCase) {
		run := 0
		for shape, k := range shapes {
			for name, dial := range map[string]Dialer{"pipe": PipeLinks(), "tcp": TCPLinks()} {
				width := []int{1, 2, 4}[run%3] // each twice a case, over both links
				run++
				wg.Add(1)
				go func() {
					defer wg.Done()
					fail := func(format string, args ...any) {
						t.Errorf("%s at K=%s, width %d over %s: %s", c.name, shape, width, name, fmt.Sprintf(format, args...))
					}
					tr := c.build(seed)
					ref := newSequential(tr.Clone())
					dp, err := NewDistributed(tr, c.cuts, dial)
					if err != nil {
						fail("%v", err)
						return
					}
					defer dp.Close()
					for _, seg := range dp.segments {
						seg.Width = width
					}
					S := len(c.cuts) + 1
					p, want := make([]int, S), make([]int, S)
					for s := range p {
						p[s] = k(S, s)
						want[s] = min(p[s], m)
					}
					dp.est.residency = func([]pipeline.StageTimes) ([]int, error) { return slices.Clone(p), nil }
					xs, ys := c.batches(seed, 3, rows)
					optRef, optDist := &nn.SGD{LR: 0.05, Momentum: 0.5}, &nn.SGD{LR: 0.05, Momentum: 0.5}
					for r := 0; r < rounds; r++ {
						x, y := xs[r%len(xs)], ys[r%len(xs)]
						wantLoss, err := ref.TrainSyncRound(x, y, mbs, optRef)
						if err != nil {
							fail("reference round %d: %v", r, err)
							return
						}
						got, err := dp.TrainSyncRound(x, y, mbs, optDist)
						if err != nil {
							fail("round %d: %v", r, err)
							return
						}
						if math.Float64bits(got) != math.Float64bits(wantLoss) {
							fail("round %d: loss %v, sequential %v", r, got, wantLoss)
							return
						}
						// The first round runs S−s; every later one the seam's K.
						if k := dp.LastRoundStats().Residency; r > 0 && !slices.Equal(k, want) {
							fail("round %d ran K=%v, want %v", r, k, want)
							return
						}
					}
					if err := sameBits(dp.Network(), ref.Network()); err != nil {
						fail("after %d rounds: %v", rounds, err)
					}
				}()
			}
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
	// Every size the round moved through the pool.
	poolHandsOutOnce(t, mbs*10, mbs*hidden, mbs*4, 10*hidden, hidden*4)
}

// poolHandsOutOnce fails if the tensor pool hands out one tensor of any of
// the given sizes twice — what a tensor returned to it twice would be.
func poolHandsOutOnce(t *testing.T, sizes ...int) {
	t.Helper()
	for _, n := range sizes {
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

// TestHostileShapesAbortRound scripts a neighbour that sends finite,
// well-formed tensors of the wrong shape: activations shaped [4 5], [5 12]
// and [2 24] to a stage that expects [4 12] — its Dense(12, 4) cannot take
// the first, the loss has no label for the second's fifth row — and a
// gradient shaped unlike the output it is for. Each must end the round in a
// *RoundError carrying wire.ErrFrame: no panic, no optimizer step, and no
// pooled tensor returned twice.
func TestHostileShapesAbortRound(t *testing.T) {
	const seed, rows, mbs, hidden = 11, 12, 4, 12
	for _, c := range []struct {
		name  string
		grad  bool // the peer is stage 1 and answers stage 0; else it is stage 0 to stage 1
		shape []int
	}{
		{"activation [4 5]", false, []int{4, 5}},
		{"activation [5 12]", false, []int{5, 12}},
		{"activation [2 24]", false, []int{2, 24}},
		{"gradient [4 5]", true, []int{4, 5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "hostile", 10, []int{hidden}, 4)
			values := make([]float64, c.shape[0]*c.shape[1])
			for i := range values {
				values[i] = 0.5
			}
			hostile := frame(0, c.shape, values...)
			peerDone := make(chan struct{})
			scripted := func(int) (net.Conn, net.Conn, error) {
				up, upPeer := net.Pipe()
				down, downPeer := net.Pipe()
				go func() {
					defer close(peerDone)
					defer upPeer.Close()
					defer downPeer.Close()
					if !c.grad {
						downPeer.Write(hostile) // returns once the abort closes the stage's end
						return
					}
					// Read activation 0 off stage 0, then answer it.
					var hdr [wire.HeaderSize]byte
					if _, err := io.ReadFull(upPeer, hdr[:]); err != nil {
						return
					}
					h, err := wire.ParseHeader(hdr[:], wire.Limits{})
					if err != nil {
						return
					}
					if _, err := io.CopyN(io.Discard, upPeer, int64(h.PayloadLen)); err == nil {
						upPeer.Write(hostile)
					}
				}()
				return up, down, nil
			}
			dp, err := NewDistributed(tr, []int{1}, scripted)
			if err != nil {
				t.Fatal(err)
			}
			baseline := leakcheck.Baseline()
			x, y := makeData(rand.New(rand.NewSource(seed)), rows, 10, 4)
			before := dp.Network().FlatWeights()
			_, err = dp.TrainSyncRound(x, y, mbs, &nn.SGD{LR: 0.1})
			var re *RoundError
			if !errors.As(err, &re) || !slices.ContainsFunc(re.Errs, func(e error) bool { return errors.Is(e, wire.ErrFrame) }) {
				t.Fatalf("want a *RoundError carrying wire.ErrFrame, got %v", err)
			}
			<-peerDone
			leakcheck.Check(t, baseline)
			if !slices.Equal(before, dp.Network().FlatWeights()) {
				t.Fatal("the aborted round changed the weights")
			}
			poolHandsOutOnce(t, len(values), mbs*10, mbs*hidden, mbs*4, 10*hidden, hidden*4)
		})
	}
}
