package experiments

import (
	"fmt"

	"acic/internal/analysis"
)

// The trace-characterization analyses behind Fig 1a, Fig 1b and
// ext-headroom are cells too: one analysis cell per app, computed like a
// probe cell and stored in the result cache next to the simulations. Its
// CellResult carries no cpu.Result, only the integer tallies all three
// figures render from, so a cached -exp all reads them from the store and
// prepares no workload. The cell keys like any other (cacheKey), so the
// sampled lane's estimates key apart from the full lane's, and the cells
// reach the worker pool, remote workers and progress counts through
// Require. They never ride a gang: RunGangCells only builds simulations.

// AnalysisScheme is the scheme coordinate of the per-app analysis cell.
// It is not a registered scheme: SchemeNames, acic-sim and /v1/cells
// never name it.
const AnalysisScheme = "analysis"

// analysisPlatform is the analysis cell's prefetcher coordinate: the
// analyses read the trace alone, so no prefetcher is involved.
const analysisPlatform = "none"

// analysisCell is the app's analysis cell.
func analysisCell(app string) Cell {
	return Cell{App: app, Scheme: AnalysisScheme, Prefetcher: analysisPlatform}
}

// analysisCells lists the analysis cells of the given apps.
func analysisCells(apps []string) []Cell {
	return CrossCells(apps, []string{AnalysisScheme}, analysisPlatform)
}

// Simulates reports whether the cell is a simulation, as opposed to the
// per-app analysis cell, whose result carries no cpu.Result.
func (c Cell) Simulates() bool { return c.Scheme != AnalysisScheme }

// Analysis holds an analysis cell's integer tallies. Renderers derive
// fractions from the counts (analysis.Fractions, analysis.MissRatios),
// so a cached analysis renders exactly like a fresh one.
type Analysis struct {
	// Reuse counts the finite reuse distances of the instruction-granular
	// block references per Fig 1a bucket (analysis.Fig1aEdges, overflow
	// last).
	Reuse []uint64
	// Transitions counts Fig 1b's moves between the reuse buckets of
	// consecutive accesses to the same block: Transitions[from][to].
	Transitions [][]uint64
	// Hits counts the block accesses a fully-associative LRU cache hits at
	// each of HeadroomCapacities, out of Accesses block accesses.
	Hits     []uint64
	Accesses uint64
}

// computeAnalysis runs the analyses of one app's cell: one reuse pass
// over the instruction-granular block references (Fig 1a buckets and
// Fig 1b transitions) and one over the collapsed block-access sequence
// (the ext-headroom miss-ratio curve), each estimated from the sampled
// constituencies when the suite samples.
func (s *Suite) computeAnalysis(c Cell, w *Workload) (CellResult, error) {
	if c.Prefetcher != analysisPlatform {
		return CellResult{}, fmt.Errorf("experiments: %s cells run under prefetcher %q, not %q", AnalysisScheme, analysisPlatform, c.Prefetcher)
	}
	f := s.sampleFilter(c.App)
	refs, dists := analysis.SampledReuse(w.Prog.BlockRefs(), f)
	_, blockDists := analysis.SampledReuse(w.Blocks, f)
	return CellResult{Analysis: &Analysis{
		Reuse:       analysis.BucketCounts(dists, analysis.Fig1aEdges),
		Transitions: analysis.TransitionCounts(refs, dists, analysis.Fig1aEdges),
		Hits:        analysis.CapacityHits(blockDists, HeadroomCapacities),
		Accesses:    uint64(len(blockDists)),
	}}, nil
}

// analysisOf returns an already-planned analysis cell's tallies;
// renderers call it after a successful Require, at which point a missing
// analysis is a logic error.
func (s *Suite) analysisOf(app string) *Analysis {
	c := analysisCell(app)
	r := s.planned(c)
	if r.Analysis == nil {
		panic(fmt.Sprintf("experiments: cell %s carries no analysis", c))
	}
	return r.Analysis
}
