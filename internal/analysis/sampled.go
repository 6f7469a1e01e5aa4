package analysis

import "acic/internal/cache"

// Set-sampled estimators for the trace-characterization analyses: the
// quick-look lane runs them over the sampled set constituencies only and
// scales the unique-block counts back up by the stride, the same
// methodology the sampled simulator applies to miss counters
// (DESIGN.md §10). The full-analysis functions remain the reference.

// SampleRefs filters a block-reference sequence down to the sampled
// constituencies. With the zero filter it returns the input unchanged.
func SampleRefs(blocks []uint64, f cache.SampleFilter) []uint64 {
	if !f.Enabled() {
		return blocks
	}
	out := make([]uint64, 0, len(blocks)/f.Stride()+1)
	for _, b := range blocks {
		if f.Sampled(b) {
			out = append(out, b)
		}
	}
	return out
}

// SampledReuse returns the sampled accesses and their estimated LRU stack
// distances: the unique blocks observed between consecutive uses within
// the sampled constituencies, scaled by the stride (unique blocks are
// spread uniformly over constituencies, so sampled-unique × stride is an
// unbiased estimate of true uniques). Distance 0 — the dominant
// same-block spatial bucket — is preserved exactly for runs with no
// intervening sampled block. The distances align with the returned
// references, so bucket counts (BucketCounts), Fig 1b transitions
// (TransitionCounts) and miss-ratio curves (CapacityHits) all derive from
// one pass. With the zero filter this is (blocks, ReuseDistances(blocks)).
func SampledReuse(blocks []uint64, f cache.SampleFilter) ([]uint64, []int64) {
	refs := SampleRefs(blocks, f)
	dists := ReuseDistances(refs)
	if f.Enabled() {
		scale := int64(f.Stride())
		for i, d := range dists {
			if d != InfiniteDistance {
				dists[i] = d * scale
			}
		}
	}
	return refs, dists
}
