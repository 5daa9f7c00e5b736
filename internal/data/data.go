// Package data generates the synthetic classification datasets and non-IID
// client partitions used by the federated-learning experiments.
//
// The paper trains on MNIST, Fashion-MNIST and CIFAR-10. Those corpora are
// not available offline, so this package substitutes label-conditioned
// Gaussian-cluster datasets with three difficulty presets named after them
// (see DESIGN.md). What the FL experiments actually measure — relative
// convergence of aggregation strategies under label-distribution skew — is
// produced by the partitioners, which reproduce the paper's setups exactly:
// two random classes per client (§6.1), RLG-IID, and RLG-NIID.
//
// Mini-batches come from two helpers and nothing else: Subset.AppendShuffled
// draws one epoch's visiting order (the only place a shard is shuffled) and
// Dataset.Gather copies the examples an index list names into a batch (the
// only gather loop). Subset.Batches composes them into freshly allocated
// batches for callers that want a whole epoch in hand; fl's local update
// keeps the index order as its plan and gathers each mini-batch into one
// reused buffer, so an epoch never exists as tensors.
package data

import (
	"fmt"
	"math/rand"

	"ecofl/internal/tensor"
)

// Dataset is a labelled classification dataset held in memory.
type Dataset struct {
	Name       string
	NumClasses int
	Dim        int
	X          *tensor.Tensor // n × Dim feature matrix (row-major samples)
	Y          []int          // n labels in [0, NumClasses)
}

// Gather copies the examples idx names into b: row r of b.X and b.Y[r] become
// example idx[r]. b.X and b.Y need room for len(idx) examples and may have
// room for more — a short last batch reuses the full-size buffer — and are
// cut to exactly len(idx): b.X is reshaped to (len(idx), Dim).
func (d *Dataset) Gather(b *Batch, idx []int) {
	dim := d.Dim
	b.X.Data = b.X.Data[:len(idx)*dim]
	b.X.Shape = append(b.X.Shape[:0], len(idx), dim)
	b.Y = b.Y[:len(idx)]
	for row, i := range idx {
		copy(b.X.Data[row*dim:(row+1)*dim], d.X.Data[i*dim:(i+1)*dim])
		b.Y[row] = d.Y[i]
	}
}

// newBatch allocates a batch with room for n examples.
func (d *Dataset) newBatch(n int) Batch {
	return Batch{X: tensor.New(n, d.Dim), Y: make([]int, n)}
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// Synthetic generates n examples over k classes in dim dimensions. Class
// means are unit-ish vectors separated on random axes; noise scales the
// within-class standard deviation, controlling difficulty.
func Synthetic(rng *rand.Rand, name string, n, dim, k int, noise float64) *Dataset {
	if dim < k {
		panic(fmt.Sprintf("data: dim %d must be ≥ classes %d", dim, k))
	}
	means := make([][]float64, k)
	for c := range means {
		m := make([]float64, dim)
		// Deterministic structure: class c peaks on feature c, plus a
		// random low-amplitude signature so classes are not axis-trivial.
		m[c] = 2.5
		for j := range m {
			m[j] += rng.NormFloat64() * 0.3
		}
		means[c] = m
	}
	x := tensor.New(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		y[i] = c
		row := x.Data[i*dim : (i+1)*dim]
		for j := range row {
			row[j] = means[c][j] + rng.NormFloat64()*noise
		}
	}
	// Shuffle so contiguous index ranges are label-mixed.
	perm := rng.Perm(n)
	xs := tensor.New(n, dim)
	ys := make([]int, n)
	for to, from := range perm {
		copy(xs.Data[to*dim:(to+1)*dim], x.Data[from*dim:(from+1)*dim])
		ys[to] = y[from]
	}
	return &Dataset{Name: name, NumClasses: k, Dim: dim, X: xs, Y: ys}
}

// Difficulty presets named after the paper's datasets. Noise levels are
// ordered so relative accuracy mirrors the paper: MNIST easiest,
// Fashion-MNIST intermediate, CIFAR-10 hardest.
const (
	noiseMNIST   = 0.6
	noiseFashion = 1.0
	noiseCIFAR   = 1.8
)

// MNISTLike returns an easy 10-class dataset (stands in for MNIST).
func MNISTLike(rng *rand.Rand, n int) *Dataset {
	return Synthetic(rng, "mnist-like", n, 32, 10, noiseMNIST)
}

// FashionLike returns an intermediate 10-class dataset (Fashion-MNIST).
func FashionLike(rng *rand.Rand, n int) *Dataset {
	return Synthetic(rng, "fashion-like", n, 32, 10, noiseFashion)
}

// CIFARLike returns a hard 10-class dataset (CIFAR-10).
func CIFARLike(rng *rand.Rand, n int) *Dataset {
	return Synthetic(rng, "cifar-like", n, 32, 10, noiseCIFAR)
}

// Split partitions a dataset into train/test with the given train fraction.
func (d *Dataset) Split(frac float64) (train, test *Subset) {
	cut := int(float64(d.Len()) * frac)
	trainIdx := make([]int, cut)
	testIdx := make([]int, d.Len()-cut)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	for i := range testIdx {
		testIdx[i] = cut + i
	}
	return &Subset{Parent: d, Indices: trainIdx}, &Subset{Parent: d, Indices: testIdx}
}

// ---------------------------------------------------------------- Subset

// Subset is a view of a dataset restricted to a set of example indices —
// one client's local shard in FL.
type Subset struct {
	Parent  *Dataset
	Indices []int
}

// Len returns the number of examples in the subset.
func (s *Subset) Len() int { return len(s.Indices) }

// Materialize copies the subset into a dense (X, Y) pair.
func (s *Subset) Materialize() (*tensor.Tensor, []int) {
	b := s.Parent.newBatch(len(s.Indices))
	s.Parent.Gather(&b, s.Indices)
	return b.X, b.Y
}

// LabelCounts returns the per-class example counts.
func (s *Subset) LabelCounts() []int {
	counts := make([]int, s.Parent.NumClasses)
	for _, idx := range s.Indices {
		counts[s.Parent.Y[idx]]++
	}
	return counts
}

// Batch is one training mini-batch.
type Batch struct {
	X *tensor.Tensor
	Y []int
}

// AppendShuffled appends one epoch's visiting order to dst: the subset's
// example indices (into the parent dataset), shuffled with rng. It is the one
// place a shard is shuffled, so everything that walks a shard consumes the rng
// stream identically.
func (s *Subset) AppendShuffled(dst []int, rng *rand.Rand) []int {
	dst = append(dst, s.Indices...)
	idx := dst[len(dst)-len(s.Indices):]
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return dst
}

// Batches shuffles the subset with rng and groups it into mini-batches of
// the given size (last batch may be short), each freshly allocated.
func (s *Subset) Batches(rng *rand.Rand, batchSize int) []Batch {
	idx := s.AppendShuffled(nil, rng)
	var out []Batch
	for start := 0; start < len(idx); start += batchSize {
		end := min(start+batchSize, len(idx))
		b := s.Parent.newBatch(end - start)
		s.Parent.Gather(&b, idx[start:end])
		out = append(out, b)
	}
	return out
}

// ---------------------------------------------------------------- Partitioners

// PartitionIID deals the dataset round-robin into n equally sized IID shards.
func PartitionIID(rng *rand.Rand, d *Dataset, n int) []*Subset {
	perm := rng.Perm(d.Len())
	subs := make([]*Subset, n)
	for i := range subs {
		subs[i] = &Subset{Parent: d}
	}
	for pos, idx := range perm {
		c := pos % n
		subs[c].Indices = append(subs[c].Indices, idx)
	}
	return subs
}

// PartitionByClasses reproduces the paper's main non-IID setting: each
// client's samples come from exactly classesPerClient random classes
// ("the samples in each client are only assigned from two random classes").
// It uses the shard method of McMahan et al.: sort by label, slice into
// n·classesPerClient shards, give each client classesPerClient shards.
func PartitionByClasses(rng *rand.Rand, d *Dataset, n, classesPerClient int) []*Subset {
	byLabel := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		byLabel[y] = append(byLabel[y], i)
	}
	var sorted []int
	for _, idxs := range byLabel {
		sorted = append(sorted, idxs...)
	}
	numShards := n * classesPerClient
	shardSize := len(sorted) / numShards
	if shardSize == 0 {
		panic(fmt.Sprintf("data: dataset too small for %d shards", numShards))
	}
	shardOrder := rng.Perm(numShards)
	subs := make([]*Subset, n)
	for c := 0; c < n; c++ {
		sub := &Subset{Parent: d}
		for s := 0; s < classesPerClient; s++ {
			sh := shardOrder[c*classesPerClient+s]
			start := sh * shardSize
			end := start + shardSize
			if sh == numShards-1 {
				end = len(sorted)
			}
			sub.Indices = append(sub.Indices, sorted[start:end]...)
		}
		subs[c] = sub
	}
	return subs
}

// PartitionRLGIID implements the paper's RLG-IID setting: clients are
// pre-assigned to response-latency groups (given by groupOf), and every
// client receives an IID sample of all classes, so each RLG's aggregate
// distribution is IID.
func PartitionRLGIID(rng *rand.Rand, d *Dataset, groupOf []int) []*Subset {
	return PartitionIID(rng, d, len(groupOf))
}

// PartitionRLGNIID implements the paper's RLG-NIID setting: each
// response-latency group draws from only classesPerGroup classes, modelling
// correlated compute capability and data ("businessmen of certain areas
// possess devices with higher computing capability and have similar
// behavioral characteristics"). groupOf[i] is client i's RLG index.
func PartitionRLGNIID(rng *rand.Rand, d *Dataset, groupOf []int, classesPerGroup int) []*Subset {
	numGroups := 0
	for _, g := range groupOf {
		if g+1 > numGroups {
			numGroups = g + 1
		}
	}
	// Assign each group a contiguous set of classes, with starts spread
	// evenly so the union of all groups covers the label space (any class
	// missing from every group would cap achievable accuracy for all
	// methods alike and mask grouping effects).
	groupClasses := make([][]int, numGroups)
	for g := 0; g < numGroups; g++ {
		start := g * d.NumClasses / numGroups
		for c := 0; c < classesPerGroup; c++ {
			groupClasses[g] = append(groupClasses[g], (start+c)%d.NumClasses)
		}
	}
	byLabel := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		byLabel[y] = append(byLabel[y], i)
	}
	cursor := make([]int, d.NumClasses) // next unconsumed index per label
	// Count clients per (group, class) to size shares.
	clientsWanting := make([]int, d.NumClasses)
	for _, g := range groupOf {
		for _, c := range groupClasses[g] {
			clientsWanting[c]++
		}
	}
	subs := make([]*Subset, len(groupOf))
	for i, g := range groupOf {
		sub := &Subset{Parent: d}
		for _, c := range groupClasses[g] {
			share := len(byLabel[c]) / clientsWanting[c]
			if share == 0 {
				share = 1
			}
			for k := 0; k < share && cursor[c] < len(byLabel[c]); k++ {
				sub.Indices = append(sub.Indices, byLabel[c][cursor[c]])
				cursor[c]++
			}
		}
		subs[i] = sub
	}
	return subs
}
