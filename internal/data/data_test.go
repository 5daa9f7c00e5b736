package data

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ecofl/internal/nn"
	"ecofl/internal/stats"
)

func TestSyntheticShapeAndLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Synthetic(rng, "t", 100, 16, 4, 0.5)
	if d.Len() != 100 || d.X.Rows() != 100 || d.X.Cols() != 16 {
		t.Fatalf("bad shape: len %d, X %v", d.Len(), d.X.Shape)
	}
	counts := make([]int, 4)
	for _, y := range d.Y {
		if y < 0 || y >= 4 {
			t.Fatalf("label out of range: %d", y)
		}
		counts[y]++
	}
	for c, n := range counts {
		if n != 25 {
			t.Fatalf("class %d has %d samples, want 25", c, n)
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := Synthetic(rand.New(rand.NewSource(9)), "a", 50, 16, 5, 1)
	b := Synthetic(rand.New(rand.NewSource(9)), "b", 50, 16, 5, 1)
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels must be deterministic for equal seeds")
		}
	}
	if a.X.Data[0] != b.X.Data[0] {
		t.Fatal("features must be deterministic for equal seeds")
	}
}

// Difficulty ordering: a model trained identically should score
// MNIST-like ≥ Fashion-like ≥ CIFAR-like (paper's dataset ordering).
func TestDifficultyOrdering(t *testing.T) {
	accOn := func(make func(*rand.Rand, int) *Dataset) float64 {
		rng := rand.New(rand.NewSource(42))
		d := make(rng, 1200)
		train, test := d.Split(0.8)
		net := nn.NewMLP(rand.New(rand.NewSource(7)), d.Dim, 32, d.NumClasses)
		opt := &nn.SGD{LR: 0.05}
		for epoch := 0; epoch < 5; epoch++ {
			for _, b := range train.Batches(rng, 32) {
				net.TrainBatch(b.X, b.Y, opt)
			}
		}
		x, y := test.Materialize()
		return net.Accuracy(x, y)
	}
	mnist := accOn(MNISTLike)
	fashion := accOn(FashionLike)
	cifar := accOn(CIFARLike)
	if !(mnist > fashion && fashion > cifar) {
		t.Fatalf("difficulty ordering violated: mnist %.3f, fashion %.3f, cifar %.3f", mnist, fashion, cifar)
	}
	if mnist < 0.8 {
		t.Fatalf("mnist-like should be easy, got %.3f", mnist)
	}
}

func TestSplitDisjointCover(t *testing.T) {
	d := MNISTLike(rand.New(rand.NewSource(2)), 100)
	train, test := d.Split(0.7)
	if train.Len() != 70 || test.Len() != 30 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train.Indices...), test.Indices...) {
		if seen[i] {
			t.Fatal("split overlaps")
		}
		seen[i] = true
	}
	if len(seen) != 100 {
		t.Fatal("split must cover dataset")
	}
}

func TestPartitionIIDBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := MNISTLike(rng, 1000)
	subs := PartitionIID(rng, d, 10)
	for i, s := range subs {
		if s.Len() != 100 {
			t.Fatalf("client %d has %d samples", i, s.Len())
		}
		// IID shard should be close to uniform.
		if js := stats.JS(stats.FromCounts(s.LabelCounts()), stats.NewUniform(10)); js > 0.05 {
			t.Fatalf("client %d JS from uniform = %v, too skewed for IID", i, js)
		}
	}
}

func TestPartitionByClassesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := MNISTLike(rng, 2000)
	subs := PartitionByClasses(rng, d, 20, 2)
	totalCovered := 0
	for i, s := range subs {
		if s.Len() == 0 {
			t.Fatalf("client %d empty", i)
		}
		totalCovered += s.Len()
		distinct := 0
		for _, c := range s.LabelCounts() {
			if c > 0 {
				distinct++
			}
		}
		// Shard method: at most 2 distinct classes (a shard boundary can
		// rarely add a third when shards straddle labels; allow ≤3).
		if distinct > 3 {
			t.Fatalf("client %d has %d distinct classes, want ≤3", i, distinct)
		}
		if js := stats.JS(stats.FromCounts(s.LabelCounts()), stats.NewUniform(10)); js < 0.3 {
			t.Fatalf("client %d insufficiently skewed: JS %v", i, js)
		}
	}
	if totalCovered < d.Len()*95/100 {
		t.Fatalf("partition lost too much data: %d of %d", totalCovered, d.Len())
	}
}

func TestPartitionRLGNIIDGroupSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := MNISTLike(rng, 3000)
	groupOf := make([]int, 30)
	for i := range groupOf {
		groupOf[i] = i % 5
	}
	subs := PartitionRLGNIID(rng, d, groupOf, 3)
	// Each group's union distribution must cover ≤3 classes.
	groupCounts := make([][]int, 5)
	for g := range groupCounts {
		groupCounts[g] = make([]int, 10)
	}
	for i, s := range subs {
		if s.Len() == 0 {
			t.Fatalf("client %d empty", i)
		}
		for c, n := range s.LabelCounts() {
			groupCounts[groupOf[i]][c] += n
		}
	}
	for g, counts := range groupCounts {
		distinct := 0
		for _, c := range counts {
			if c > 0 {
				distinct++
			}
		}
		if distinct > 3 {
			t.Fatalf("group %d covers %d classes, want ≤3", g, distinct)
		}
	}
}

func TestPartitionRLGIIDUniformGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := MNISTLike(rng, 2000)
	groupOf := make([]int, 20)
	for i := range groupOf {
		groupOf[i] = i % 5
	}
	subs := PartitionRLGIID(rng, d, groupOf)
	for g := 0; g < 5; g++ {
		counts := make([]int, 10)
		for i, s := range subs {
			if groupOf[i] != g {
				continue
			}
			for c, n := range s.LabelCounts() {
				counts[c] += n
			}
		}
		if js := stats.JS(stats.FromCounts(counts), stats.NewUniform(10)); js > 0.02 {
			t.Fatalf("group %d not IID: JS %v", g, js)
		}
	}
}

func TestBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := MNISTLike(rng, 105)
	sub, _ := d.Split(1.0)
	batches := sub.Batches(rng, 10)
	if len(batches) != 11 {
		t.Fatalf("got %d batches, want 11", len(batches))
	}
	total := 0
	for i, b := range batches {
		if len(b.Y) != b.X.Rows() {
			t.Fatalf("batch %d X/Y mismatch", i)
		}
		total += len(b.Y)
	}
	if total != 105 {
		t.Fatalf("batches cover %d samples, want 105", total)
	}
	if len(batches[10].Y) != 5 {
		t.Fatalf("last batch should have 5 samples, got %d", len(batches[10].Y))
	}
}

// Property: every partitioner assigns each example to at most one client.
func TestPartitionDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := MNISTLike(rng, 500)
		n := 2 + rng.Intn(8)
		for _, subs := range [][]*Subset{
			PartitionIID(rng, d, n),
			PartitionByClasses(rng, d, n, 2),
		} {
			seen := map[int]bool{}
			for _, s := range subs {
				for _, i := range s.Indices {
					if seen[i] {
						return false
					}
					seen[i] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestImageLikeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	d := ImageLike(rng, 60, 12, 4, 0.4)
	if d.Dim != 144 || len(d.SampleShape) != 3 {
		t.Fatalf("bad image dataset: dim %d shape %v", d.Dim, d.SampleShape)
	}
	sub, _ := d.Split(1.0)
	x, y := sub.Materialize()
	want := []int{60, 1, 12, 12}
	for i, dim := range want {
		if x.Shape[i] != dim {
			t.Fatalf("materialized shape %v, want %v", x.Shape, want)
		}
	}
	if len(y) != 60 {
		t.Fatalf("labels %d", len(y))
	}
	for _, b := range sub.Batches(rng, 16) {
		if len(b.X.Shape) != 4 || b.X.Shape[1] != 1 {
			t.Fatalf("batch shape %v must be NCHW", b.X.Shape)
		}
	}
}

func TestImageLikeLearnableByCNN(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := ImageLike(rng, 120, 12, 4, 0.4)
	train, test := d.Split(0.8)
	net := nn.NewNetwork(
		nn.NewConv2D(rand.New(rand.NewSource(1)), 1, 4, 3, 1, 1),
		nn.ReLU{},
		nn.MaxPool2D{K: 2, Stride: 2},
		nn.Flatten{},
		nn.NewDense(rand.New(rand.NewSource(2)), 4*6*6, 4),
	)
	opt := &nn.SGD{LR: 0.05, Momentum: 0.9}
	for e := 0; e < 15; e++ {
		for _, b := range train.Batches(rng, 16) {
			net.TrainBatch(b.X, b.Y, opt)
		}
	}
	tx, ty := test.Materialize()
	if acc := net.Accuracy(tx, ty); acc < 0.8 {
		t.Fatalf("CNN should learn image-like data, acc %.3f", acc)
	}
}
