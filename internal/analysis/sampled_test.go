package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"acic/internal/cache"
)

// TestSampledReuse: with the zero filter SampledReuse is the exact pass;
// with a filter it keeps only the sampled blocks, and their distances are
// the sampled sequence's exact distances scaled by the stride.
func TestSampledReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blocks := make([]uint64, 5000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(256))
	}
	refs, dists := SampledReuse(blocks, cache.SampleFilter{})
	if !reflect.DeepEqual(refs, blocks) || !reflect.DeepEqual(dists, ReuseDistances(blocks)) {
		t.Fatal("zero filter is not the exact reuse pass")
	}

	f, err := cache.NewSampleFilter(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	refs, dists = SampledReuse(blocks, f)
	want := SampleRefs(blocks, f)
	if !reflect.DeepEqual(refs, want) || len(dists) != len(refs) {
		t.Fatalf("sampled refs: got %d (%d distances), want %d", len(refs), len(dists), len(want))
	}
	for i, d := range ReuseDistances(want) {
		if d != InfiniteDistance {
			d *= 8
		}
		if dists[i] != d {
			t.Fatalf("access %d: distance %d, want %d", i, dists[i], d)
		}
	}
}

// TestCapacityHits counts hits below each capacity, first accesses never
// hitting, and MissRatios turns them into MissRatioCurve's values.
func TestCapacityHits(t *testing.T) {
	dists := []int64{InfiniteDistance, 0, 3, 4, InfiniteDistance, 9}
	hits := CapacityHits(dists, []int{1, 4, 5, 100})
	if want := []uint64{1, 2, 3, 4}; !reflect.DeepEqual(hits, want) {
		t.Errorf("CapacityHits = %v, want %v", hits, want)
	}
	if got, want := MissRatios(hits, uint64(len(dists))), []float64{5.0 / 6, 4.0 / 6, 3.0 / 6, 2.0 / 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("MissRatios = %v, want %v", got, want)
	}
}
