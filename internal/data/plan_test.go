package data

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ecofl/internal/tensor"
)

// referenceBatches is Subset.Batches as it was before the shuffle and the
// gather moved into AppendShuffled and Gather: a shuffled copy of the
// indices, and a fresh tensor filled row by row for every batch. It stays
// here as the definition both new paths are held to.
func referenceBatches(s *Subset, rng *rand.Rand, batchSize int) []Batch {
	idx := append([]int(nil), s.Indices...)
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	d := s.Parent
	var out []Batch
	for start := 0; start < len(idx); start += batchSize {
		end := start + batchSize
		if end > len(idx) {
			end = len(idx)
		}
		b := Batch{X: tensor.New(end-start, d.Dim), Y: make([]int, end-start)}
		for row, i := range idx[start:end] {
			copy(b.X.Data[row*d.Dim:(row+1)*d.Dim], d.X.Data[i*d.Dim:(i+1)*d.Dim])
			b.Y[row] = d.Y[i]
		}
		out = append(out, b)
	}
	return out
}

// TestPlanAndGatherReproduceBatches: the two ways to walk a shard — Batches,
// and an index plan gathered batch by batch into one reused buffer, as fl's
// local update does — yield the reference's batches exactly (shape, feature
// bytes, labels, order) and leave the rng where the reference leaves it, on a
// shard whose length the batch size does not divide, over two epochs.
func TestPlanAndGatherReproduceBatches(t *testing.T) {
	const batchSize, epochs = 10, 2
	gen := rand.New(rand.NewSource(11))
	for name, d := range map[string]*Dataset{
		"flat": FashionLike(gen, 300),
	} {
		// An interior, non-contiguous shard of 47 examples: 4 full batches + 7.
		shard := &Subset{Parent: d}
		for i := 5; len(shard.Indices) < 47; i += 3 {
			shard.Indices = append(shard.Indices, i)
		}
		rngRef, rngBatches, rngPlan := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		var want, got []Batch
		var plan []int
		for e := 0; e < epochs; e++ {
			want = append(want, referenceBatches(shard, rngRef, batchSize)...)
			got = append(got, shard.Batches(rngBatches, batchSize)...)
			plan = shard.AppendShuffled(plan, rngPlan)
		}
		if a, b := rngRef.Int63(), rngBatches.Int63(); a != b {
			t.Fatalf("%s: Batches left the rng in a different state than the reference", name)
		}
		rngRef.Seed(3)
		for e := 0; e < epochs; e++ {
			referenceBatches(shard, rngRef, batchSize)
		}
		if a, b := rngRef.Int63(), rngPlan.Int63(); a != b {
			t.Fatalf("%s: the index plan left the rng in a different state than the reference", name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: Batches yields %d batches, reference %d", name, len(got), len(want))
		}
		// The plan path: one buffer, cut to each batch by Gather.
		buf := Batch{X: tensor.New(batchSize * d.Dim), Y: make([]int, batchSize)}
		n, k := shard.Len(), 0
		for ; len(plan) > 0; plan = plan[n:] {
			for start := 0; start < n; start += batchSize {
				d.Gather(&buf, plan[start:min(start+batchSize, n)])
				for path, b := range map[string]Batch{"Batches": got[k], "plan+gather": buf} {
					if !reflect.DeepEqual(b.X.Shape, want[k].X.Shape) {
						t.Fatalf("%s %s batch %d: shape %v, reference %v", name, path, k, b.X.Shape, want[k].X.Shape)
					}
					if !slices.Equal(b.X.Data, want[k].X.Data) || !reflect.DeepEqual(b.Y, want[k].Y) {
						t.Fatalf("%s %s batch %d: contents differ from the reference", name, path, k)
					}
				}
				k++
			}
		}
		if k != len(want) {
			t.Fatalf("%s: the plan covers %d batches, reference %d", name, k, len(want))
		}
	}
}
