// Package analysis provides the trace-characterization machinery behind the
// paper's motivation and oracle experiments: LRU stack (reuse) distances at
// instruction-block granularity (Fig 1a), Markov chains over reuse-distance
// ranges (Fig 1b), burst statistics, and the next-use oracle that powers
// Belady's OPT replacement and the OPT-bypass scheme.
package analysis

import (
	"acic/internal/cache"
	"acic/internal/trace"
)

// InstBlockRefs returns one block reference per dynamic instruction. This
// is the granularity of Fig 1a/1b: consecutive instructions in the same
// block are distance-0 re-references (the "spatial locality" bucket that
// dominates with ~85% of accesses), while the cache simulators operate on
// the collapsed sequence (trace.Trace.BlockAccesses).
func InstBlockRefs(tr *trace.Trace) []uint64 {
	out := make([]uint64, len(tr.Insts))
	for i := range tr.Insts {
		out[i] = tr.Insts[i].Block()
	}
	return out
}

// InfiniteDistance marks a first-ever access to a block (no previous use).
const InfiniteDistance = int64(1) << 62

// ReuseDistances computes, for each access in the block sequence, the LRU
// stack distance to the previous access of the same block: the number of
// unique blocks referenced between the two accesses (0 means the block was
// re-accessed with nothing else in between — pure spatial/streaming reuse).
// First accesses get InfiniteDistance.
//
// The implementation is the classic Fenwick-tree-over-positions algorithm
// and runs in O(n log n).
func ReuseDistances(blocks []uint64) []int64 {
	n := len(blocks)
	out := make([]int64, n)
	bit := newFenwick(n + 1)
	last := make(map[uint64]int, 1024)
	for i, b := range blocks {
		if j, ok := last[b]; ok {
			// Unique blocks between j and i = number of marked positions
			// in (j, i): each marked position is the latest access of a
			// distinct block.
			out[i] = int64(bit.rangeSum(j+1, i-1))
			bit.add(j+1, -1) // block b's old position is no longer latest
		} else {
			out[i] = InfiniteDistance
		}
		bit.add(i+1, 1)
		last[b] = i
	}
	return out
}

// fenwick is a 1-indexed binary indexed tree over positions.
type fenwick struct{ tree []int }

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

func (f *fenwick) prefix(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// rangeSum sums positions [lo, hi] (0-indexed inclusive) of marked counts.
func (f *fenwick) rangeSum(lo, hi int) int {
	if hi < lo {
		return 0
	}
	return f.prefix(hi+1) - f.prefix(lo)
}

// Fig1aEdges are the reuse-distance bucket upper bounds used by Figure 1a:
// 0, 1-16, 16-512, 512-1024, 1024-10000, and >10000 (overflow; the paper
// folds first accesses out of the distribution, as do we).
var Fig1aEdges = []int64{0, 16, 512, 1024, 10000}

// BucketIndex returns the Fig 1a bucket for a reuse distance.
func BucketIndex(d int64, edges []int64) int {
	for i, e := range edges {
		if d <= e {
			return i
		}
	}
	return len(edges)
}

// BucketCounts buckets the finite reuse distances into the given edges
// (plus overflow); first accesses are folded out.
func BucketCounts(dists []int64, edges []int64) []uint64 {
	counts := make([]uint64, len(edges)+1)
	for _, d := range dists {
		if d != InfiniteDistance {
			counts[BucketIndex(d, edges)]++
		}
	}
	return counts
}

// Fractions normalizes counts by their sum (all zeros when the sum is 0).
func Fractions(counts []uint64) []float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// Distribution buckets reuse distances into the given edges (plus overflow)
// and returns per-bucket fractions over all finite-distance accesses.
func Distribution(dists []int64, edges []int64) []float64 {
	return Fractions(BucketCounts(dists, edges))
}

// MarkovChain counts transitions between consecutive reuse-distance buckets
// of the same block (Fig 1b). Row i gives the conditional distribution of
// the next reuse-distance bucket, given the current access's bucket is i.
func MarkovChain(blocks []uint64, edges []int64) [][]float64 {
	counts := TransitionCounts(blocks, ReuseDistances(blocks), edges)
	out := make([][]float64, len(counts))
	for i, row := range counts {
		out[i] = Fractions(row)
	}
	return out
}

// TransitionCounts tallies, over precomputed (possibly estimated)
// distances aligned with blocks, each block's move from the bucket of one
// finite-distance access to the bucket of its next: counts[from][to].
func TransitionCounts(blocks []uint64, dists []int64, edges []int64) [][]uint64 {
	n := len(edges) + 1
	counts := make([][]uint64, n)
	for i := range counts {
		counts[i] = make([]uint64, n)
	}
	prevBucket := make(map[uint64]int)
	for i, b := range blocks {
		if dists[i] == InfiniteDistance {
			continue
		}
		cur := BucketIndex(dists[i], edges)
		if prev, ok := prevBucket[b]; ok {
			counts[prev][cur]++
		}
		prevBucket[b] = cur
	}
	return counts
}

// BurstStats summarizes the burstiness of accesses to instruction blocks:
// a burst is a maximal run of accesses to the same block whose successive
// reuse distances stay within threshold (the i-Filter's reach).
type BurstStats struct {
	Bursts        uint64
	AccessesTotal uint64
	MeanLength    float64 // accesses per burst
	FracInBurst   float64 // fraction of accesses that are intra-burst re-uses
}

// Bursts computes burst statistics at the given intra-burst distance
// threshold (16, the i-Filter size, in the paper's framing).
func Bursts(blocks []uint64, threshold int64) BurstStats {
	dists := ReuseDistances(blocks)
	var st BurstStats
	burstLen := make(map[uint64]uint64)
	var lengths []uint64
	for i, b := range blocks {
		st.AccessesTotal++
		if dists[i] != InfiniteDistance && dists[i] <= threshold {
			burstLen[b]++
			st.FracInBurst++
		} else {
			if l, ok := burstLen[b]; ok && l > 0 {
				lengths = append(lengths, l+1)
			}
			burstLen[b] = 0
			st.Bursts++
		}
	}
	for _, l := range burstLen {
		if l > 0 {
			lengths = append(lengths, l+1)
		}
	}
	if st.AccessesTotal > 0 {
		st.FracInBurst /= float64(st.AccessesTotal)
	}
	var sum uint64
	for _, l := range lengths {
		sum += l
	}
	if len(lengths) > 0 {
		st.MeanLength = float64(sum) / float64(len(lengths))
	}
	return st
}

// NextUseArray precomputes the successor array of a block-access sequence:
// out[i] is the index of the next access to blocks[i] strictly after i, or
// cache.NeverUsed when the block is never accessed again. One backward O(n)
// pass replaces the per-query map lookup + binary search of NextUseOracle
// for the dominant query shape — "when is the block I am touching right now
// used next" — which the cache layer then carries as per-line metadata, so
// OPT replacement and OPT bypass run without any oracle lookups on the hot
// path. NextUseOracle remains the reference implementation (and serves the
// arbitrary (block, after) queries of the offline figure analyses).
func NextUseArray(blocks []uint64) []int64 {
	out := make([]int64, len(blocks))
	last := make(map[uint64]int64, 1024)
	for i := len(blocks) - 1; i >= 0; i-- {
		if j, ok := last[blocks[i]]; ok {
			out[i] = j
		} else {
			out[i] = cache.NeverUsed
		}
		last[blocks[i]] = int64(i)
	}
	return out
}

// NextUseOracle answers "when is block b next accessed strictly after
// time t" over a fixed block-access sequence; it powers OPT replacement
// (Belady) and OPT bypass.
type NextUseOracle struct {
	positions map[uint64][]int32
}

// NewNextUseOracle indexes the block-access sequence. Sequences longer than
// 2^31 accesses are not supported (far beyond any simulated trace here).
func NewNextUseOracle(blocks []uint64) *NextUseOracle {
	pos := make(map[uint64][]int32, 1024)
	for i, b := range blocks {
		pos[b] = append(pos[b], int32(i))
	}
	return &NextUseOracle{positions: pos}
}

// NextUse returns the access index of the first access to block strictly
// after index `after`, or cache.NeverUsed if none exists. The binary search
// is hand-rolled: sort.Search costs a closure call per probe, and this
// query sits on the prefetch-fill path of the oracle schemes.
func (o *NextUseOracle) NextUse(block uint64, after int64) int64 {
	ps := o.positions[block]
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(ps[mid]) > after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(ps) {
		return cache.NeverUsed
	}
	return int64(ps[lo])
}

// Func adapts the oracle to the cache.AccessContext.NextUse signature.
func (o *NextUseOracle) Func() func(uint64, int64) int64 { return o.NextUse }
