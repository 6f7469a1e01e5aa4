package analysis

import "sort"

// Headroom analysis: miss-ratio curves over cache size, computed exactly
// from the reuse-distance profile. For a fully-associative LRU cache of
// capacity C blocks, an access hits iff its stack distance is < C, so the
// complete miss-ratio curve falls out of one ReuseDistances pass — the
// standard Mattson stack algorithm. The paper's Section IV-F question
// ("would the real estate be better spent on more capacity?") is this
// curve's slope at 512 blocks; internal/experiments exposes it as the
// headroom ablation bench.

// MissRatioCurve returns the fully-associative LRU miss ratio of the block
// sequence at each candidate capacity (in blocks). Capacities are treated
// as given; pass them in ascending order for a readable curve.
func MissRatioCurve(blocks []uint64, capacities []int) []float64 {
	dists := ReuseDistances(blocks)
	return MissRatios(CapacityHits(dists, capacities), uint64(len(dists)))
}

// CapacityHits counts, per capacity, the accesses a fully-associative LRU
// cache of that many blocks hits: those whose (possibly estimated) stack
// distance is below the capacity.
func CapacityHits(dists []int64, capacities []int) []uint64 {
	hits := make([]uint64, len(capacities))
	for _, d := range dists {
		if d == InfiniteDistance {
			continue
		}
		for i, c := range capacities {
			if d < int64(c) {
				hits[i]++
			}
		}
	}
	return hits
}

// MissRatios turns per-capacity hit counts over accesses into miss
// ratios (all zeros for an empty sequence).
func MissRatios(hits []uint64, accesses uint64) []float64 {
	out := make([]float64, len(hits))
	n := float64(accesses)
	if n == 0 {
		return out
	}
	for i, h := range hits {
		out[i] = (n - float64(h)) / n
	}
	return out
}

// WorkingSet reports the number of distinct blocks needed to cover the
// given fraction of accesses (e.g. 0.9 -> the 90% working set), a compact
// footprint descriptor for workload characterization.
func WorkingSet(blocks []uint64, fraction float64) int {
	counts := make(map[uint64]int64, 1024)
	for _, b := range blocks {
		counts[b]++
	}
	freqs := make([]int64, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
	target := int64(fraction * float64(len(blocks)))
	var cum int64
	for i, f := range freqs {
		cum += f
		if cum >= target {
			return i + 1
		}
	}
	return len(freqs)
}
