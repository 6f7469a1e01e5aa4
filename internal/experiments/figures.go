package experiments

import (
	"fmt"

	"acic/internal/analysis"
	"acic/internal/stats"
)

// The renderers in this file all follow the engine's plan → execute →
// render shape: first declare the cells the artifact needs (Require,
// executed in parallel with deduplication, caching, gangs and remote
// workers), then render from completed results in paper order. Every
// simulation is a cell: the Fig 15 configuration variants are
// "acic@<variant>" schemes, and the instrumented runs of the mechanism
// figures (3b, 6, 12a, 13) are probe cells whose integer tallies are
// cached with their results (probes.go). The trace analyses behind
// Fig 1a, Fig 1b and ext-headroom are one analysis cell per app
// (analyses.go), so every figure renders from the result store.

// fig1aLabels name the Fig 1a reuse-distance buckets (analysis.Fig1aEdges
// plus overflow).
var fig1aLabels = []string{"0", "1-16", "16-512", "512-1024", "1024-10000", ">10000"}

// Fig1a returns the per-app reuse-distance distributions at instruction
// granularity (buckets 0, 1-16, 16-512, 512-1024, 1024-10000, >10000).
func (s *Suite) Fig1a() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(analysisCells(apps)...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: append([]string{"app"}, fig1aLabels...)}
	for _, app := range apps {
		fr := analysis.Fractions(s.analysisOf(app).Reuse)
		t.AddRow(app, stats.Percent(fr[0]), stats.Percent(fr[1]), stats.Percent(fr[2]),
			stats.Percent(fr[3]), stats.Percent(fr[4]), stats.Percent(fr[5]))
	}
	return t, nil
}

// Fig1b returns the Markov chain of reuse-distance buckets for the named
// app (media-streaming in the paper).
func (s *Suite) Fig1b(app string) (*stats.Table, error) {
	if err := s.Require(analysisCell(app)); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: append([]string{"from\\to"}, fig1aLabels...)}
	for i, row := range s.analysisOf(app).Transitions {
		cells := make([]any, 0, len(row)+1)
		cells = append(cells, fig1aLabels[i])
		for _, p := range analysis.Fractions(row) {
			cells = append(cells, fmt.Sprintf("%.3f", p))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Fig3a compares always-insert i-Filter, access-count bypass, and OPT
// replacement speedups over the LRU+FDP baseline.
func (s *Suite) Fig3a() (*stats.Table, error) {
	apps := s.AppNames()
	schemes := []string{Baseline, "ifilter", "access-count", "opt"}
	if err := s.Require(CrossCells(apps, schemes, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "always-insert", "access-count", "OPT"}}
	var a1, a2, a3 []float64
	for _, app := range apps {
		v1 := s.speedupOver(app, Baseline, "ifilter", "fdp")
		v2 := s.speedupOver(app, Baseline, "access-count", "fdp")
		v3 := s.speedupOver(app, Baseline, "opt", "fdp")
		a1, a2, a3 = append(a1, v1), append(a2, v2), append(a3, v3)
		t.AddRow(app, v1, v2, v3)
	}
	t.AddRow("gmean", stats.Geomean(a1), stats.Geomean(a2), stats.Geomean(a3))
	return t, nil
}

// Fig3bEdges are the signed reuse-delta bucket edges of Fig 3b.
var Fig3bEdges = []float64{-10000, -1000, -100, -10, 0, 10, 100, 1000, 10000}

// Fig3b histograms, for the named app, the difference between the next-use
// distance of each block moving from the i-Filter into the i-cache and that
// of the block OPT would evict from the target set. Positive deltas are
// wrong insertions (the paper measures 38.38% for media streaming).
func (s *Suite) Fig3b(app string) (*stats.Histogram, float64, error) {
	if err := s.Require(Cell{app, deltaProbeScheme, "fdp"}); err != nil {
		return nil, 0, err
	}
	p := s.probe(app, deltaProbeScheme)
	h := p.histogram(Fig3bEdges)
	return h, fraction(p.Wrong, h.NSamples), nil
}

// Fig6Edges bucket CSHR entry lifetimes (in set-local comparisons).
var Fig6Edges = []float64{50, 100, 150, 200, 250, 300, 350, 400}

// Fig6 histograms the number of comparisons during CSHR entry lifetimes for
// the named app; unresolved (evicted) entries land in the overflow bucket,
// mirroring the paper's "InF" bar.
func (s *Suite) Fig6(app string) (*stats.Histogram, error) {
	if err := s.Require(Cell{app, lifetimeProbeScheme, "fdp"}); err != nil {
		return nil, err
	}
	return s.probe(app, lifetimeProbeScheme).histogram(Fig6Edges), nil
}

// Fig10 reports per-app speedups of every Fig 10 scheme over the LRU+FDP
// baseline, with a trailing gmean row.
func (s *Suite) Fig10() (*stats.Table, error) { return s.schemeTable(Fig10Schemes, "fdp", true) }

// Fig11 reports per-app MPKI reductions of every Fig 10 scheme over the
// LRU+FDP baseline, with a trailing average row.
func (s *Suite) Fig11() (*stats.Table, error) { return s.schemeTable(Fig10Schemes, "fdp", false) }

func (s *Suite) schemeTable(schemes []string, pf string, speedup bool) (*stats.Table, error) {
	foot := "avg"
	if speedup {
		foot = "gmean"
	}
	return s.compareTable(s.AppNames(), schemes, pf, speedup, foot)
}

// compareTable renders the shared shape of Figs 10/11/18-21: one row per
// app, one column per scheme (speedup or MPKI reduction over Baseline),
// and a footer aggregating each column (geomean for speedups, mean for
// reductions) under the given label.
func (s *Suite) compareTable(apps, schemes []string, pf string, speedup bool, footLabel string) (*stats.Table, error) {
	if err := s.Require(CrossCells(apps, append([]string{Baseline}, schemes...), pf)...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: append([]string{"app"}, schemes...)}
	sums := make([][]float64, len(schemes))
	for _, app := range apps {
		cells := make([]any, 0, len(schemes)+1)
		cells = append(cells, app)
		for i, sch := range schemes {
			var v float64
			if speedup {
				v = s.speedupOver(app, Baseline, sch, pf)
				cells = append(cells, fmt.Sprintf("%.4f", v))
			} else {
				v = s.mpkiReductionOver(app, Baseline, sch, pf)
				cells = append(cells, stats.Percent(v))
			}
			sums[i] = append(sums[i], v)
		}
		t.AddRow(cells...)
	}
	foot := make([]any, 0, len(schemes)+1)
	foot = append(foot, footLabel)
	for i := range schemes {
		if speedup {
			foot = append(foot, fmt.Sprintf("%.4f", stats.Geomean(sums[i])))
		} else {
			foot = append(foot, stats.Percent(stats.Mean(sums[i])))
		}
	}
	t.AddRow(foot...)
	return t, nil
}

// Fig12aRanges are the [0,bound) next-use windows of Fig 12a; 0 means no
// bound ("[0,InF)").
var Fig12aRanges = []int64{0, 2048, 1024, 512, 256, 128}

// Fig12a measures ACIC bypass accuracy over decisions whose nearer next-use
// distance falls inside each window, averaged across apps.
func (s *Suite) Fig12a() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{admitProbeScheme}, "fdp")...); err != nil {
		return nil, err
	}
	// Per-app tallies merge in app order.
	correct := make([]float64, len(Fig12aRanges))
	counts := make([]float64, len(Fig12aRanges))
	for _, app := range apps {
		p := s.probe(app, admitProbeScheme)
		for ri := range Fig12aRanges {
			correct[ri] += float64(p.Correct[ri])
			counts[ri] += float64(p.Count[ri])
		}
	}
	t := &stats.Table{Header: []string{"range", "avg accuracy"}}
	for ri, bound := range Fig12aRanges {
		label := "[0,InF)"
		if bound != 0 {
			label = fmt.Sprintf("[0,%d)", bound)
		}
		acc := 0.0
		if counts[ri] > 0 {
			acc = correct[ri] / counts[ri]
		}
		t.AddRow(label, stats.Percent(acc))
	}
	return t, nil
}

// Fig12b compares the MPKI reduction of a 60%-admit random bypass against
// ACIC, per app.
func (s *Suite) Fig12b() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{Baseline, "random60", "acic"}, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "random-60%", "acic"}}
	var r1, r2 []float64
	for _, app := range apps {
		v1 := s.mpkiReductionOver(app, Baseline, "random60", "fdp")
		v2 := s.mpkiReductionOver(app, Baseline, "acic", "fdp")
		r1, r2 = append(r1, v1), append(r2, v2)
		t.AddRow(app, stats.Percent(v1), stats.Percent(v2))
	}
	t.AddRow("avg", stats.Percent(stats.Mean(r1)), stats.Percent(stats.Mean(r2)))
	return t, nil
}

// Fig13 reports the percentage of i-Filter victims ACIC admits per app.
func (s *Suite) Fig13() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{admitProbeScheme}, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "admitted"}}
	for _, app := range apps {
		p := s.probe(app, admitProbeScheme)
		t.AddRow(app, stats.Percent(fraction(p.Admitted, p.Decisions)))
	}
	return t, nil
}

// Fig14 compares MPKI reduction with the 2-cycle parallel predictor update
// against instant updates, per app.
func (s *Suite) Fig14() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{Baseline, "acic", "acic-instant"}, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "parallel", "instant"}}
	var r1, r2 []float64
	for _, app := range apps {
		v1 := s.mpkiReductionOver(app, Baseline, "acic", "fdp")
		v2 := s.mpkiReductionOver(app, Baseline, "acic-instant", "fdp")
		r1, r2 = append(r1, v1), append(r2, v2)
		t.AddRow(app, stats.Percent(v1), stats.Percent(v2))
	}
	t.AddRow("avg", stats.Percent(stats.Mean(r1)), stats.Percent(stats.Mean(r2)))
	return t, nil
}

// Variant is one row of a configuration sweep: its display name and the
// scheme that simulates it.
type Variant struct {
	Name   string
	Scheme string
}

// Fig15Variants are the sensitivity configurations of Fig 15. The default
// row is the plain acic cell; every other row is an acic@<variant> scheme
// (probes.go).
var Fig15Variants = []Variant{
	{"default", "acic"},
	{"2k-hrt", "acic@2k-hrt"},
	{"512-hrt", "acic@512-hrt"},
	{"8bit-history", "acic@8bit-history"},
	{"10bit-history", "acic@10bit-history"},
	{"2bit-counter", "acic@2bit-counter"},
	{"8bit-counter", "acic@8bit-counter"},
	{"8-slot-filter", "acic@8-slot-filter"},
	{"32-slot-filter", "acic@32-slot-filter"},
	{"7bit-cshr-tag", "acic@7bit-cshr-tag"},
	{"27bit-cshr-tag", "acic@27bit-cshr-tag"},
}

// variantSchemes returns the schemes of a sweep's rows.
func variantSchemes(rows []Variant) []string {
	schemes := make([]string, len(rows))
	for i, v := range rows {
		schemes[i] = v.Scheme
	}
	return schemes
}

// Fig15 sweeps ACIC's key parameters and reports gmean speedup over the
// baseline for each variant.
func (s *Suite) Fig15() (*stats.Table, error) {
	apps := s.AppNames()
	schemes := append([]string{Baseline}, variantSchemes(Fig15Variants)...)
	if err := s.Require(CrossCells(apps, schemes, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"variant", "gmean speedup"}}
	for _, v := range Fig15Variants {
		var speedups []float64
		for _, app := range apps {
			speedups = append(speedups, s.speedupOver(app, Baseline, v.Scheme, "fdp"))
		}
		t.AddRow(v.Name, stats.Geomean(speedups))
	}
	return t, nil
}

// Fig16 reports ACIC's speedup over the FDP baseline *equipped with an
// i-Filter* (the bypass policy's own contribution).
func (s *Suite) Fig16() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{"ifilter", "acic"}, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "speedup over lru+ifilter"}}
	var all []float64
	for _, app := range apps {
		v := s.speedupOver(app, "ifilter", "acic", "fdp")
		all = append(all, v)
		t.AddRow(app, v)
	}
	t.AddRow("gmean", stats.Geomean(all))
	return t, nil
}

// Fig17Schemes are the simplified designs of Fig 17.
var Fig17Schemes = []string{"acic", "acic-nofilter", "ifilter", "acic-global", "acic-bimodal"}

// Fig17 reports gmean speedups of ACIC's simplified designs.
func (s *Suite) Fig17() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, append([]string{Baseline}, Fig17Schemes...), "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"design", "gmean speedup"}}
	for _, sch := range Fig17Schemes {
		var all []float64
		for _, app := range apps {
			all = append(all, s.speedupOver(app, Baseline, sch, "fdp"))
		}
		t.AddRow(sch, stats.Geomean(all))
	}
	return t, nil
}

// SPECSchemes are the policies compared on SPEC (Figs 18/19) and on the
// entangling baseline (Figs 20/21).
var SPECSchemes = []string{"ghrp", "l1i-36k", "acic", "opt"}

// Fig18 reports SPEC speedups of GHRP, the 36KB L1i, ACIC, and OPT.
func (s *Suite) Fig18() (*stats.Table, error) { return s.specTable(true) }

// Fig19 reports SPEC MPKI reductions.
func (s *Suite) Fig19() (*stats.Table, error) { return s.specTable(false) }

func (s *Suite) specTable(speedup bool) (*stats.Table, error) {
	return s.compareTable(s.SPECNames(), SPECSchemes, "fdp", speedup, "gmean/avg")
}

// Fig20 reports datacenter speedups over the entangling-prefetcher
// baseline.
func (s *Suite) Fig20() (*stats.Table, error) { return s.entTable(true) }

// Fig21 reports datacenter MPKI reductions over the entangling baseline.
func (s *Suite) Fig21() (*stats.Table, error) { return s.entTable(false) }

func (s *Suite) entTable(speedup bool) (*stats.Table, error) {
	return s.compareTable(s.AppNames(), SPECSchemes, "entangling", speedup, "gmean/avg")
}
