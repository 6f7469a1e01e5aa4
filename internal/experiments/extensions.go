package experiments

import (
	"fmt"

	"acic/internal/analysis"
	"acic/internal/stats"
	"acic/internal/trace"
)

// The experiments in this file go beyond the paper's figures: the
// future-work extension it sketches (§VI, prefetch-aware ACIC), the extra
// baselines the d-cache literature would ask about (DIP family, EAF), the
// capacity-headroom question of §IV-F quantified as a full miss-ratio
// curve, and simple-prefetcher baselines that bracket FDP and entangling.

// ExtensionSchemes are the additional baselines (beyond Fig 10) this
// reproduction implements.
var ExtensionSchemes = []string{"lip", "bip", "dip", "eaf", "plru", "ripple-lite", "acic", "acic-pfaware"}

// ExtendedComparison reports speedup and MPKI reduction of the extension
// schemes over the LRU+FDP baseline.
func (s *Suite) ExtendedComparison() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, append([]string{Baseline}, ExtensionSchemes...), "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"scheme", "gmean speedup", "avg MPKI reduction"}}
	for _, sch := range ExtensionSchemes {
		var sp, red []float64
		for _, app := range apps {
			sp = append(sp, s.speedupOver(app, Baseline, sch, "fdp"))
			red = append(red, s.mpkiReductionOver(app, Baseline, sch, "fdp"))
		}
		t.AddRow(sch, stats.Geomean(sp), stats.Percent(stats.Mean(red)))
	}
	return t, nil
}

// PrefetchAware compares baseline ACIC against the prefetch-aware variant
// under both the FDP and entangling platforms (the paper's §VI asks
// exactly this question).
func (s *Suite) PrefetchAware() (*stats.Table, error) {
	apps := s.AppNames()
	platforms := []string{"fdp", "entangling"}
	var plan []Cell
	for _, pf := range platforms {
		plan = append(plan, CrossCells(apps, []string{Baseline, "acic", "acic-pfaware"}, pf)...)
	}
	if err := s.Require(plan...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"platform", "acic speedup", "pf-aware speedup", "acic MPKI red.", "pf-aware MPKI red."}}
	for _, pf := range platforms {
		var s1, s2, r1, r2 []float64
		for _, app := range apps {
			s1 = append(s1, s.speedupOver(app, Baseline, "acic", pf))
			s2 = append(s2, s.speedupOver(app, Baseline, "acic-pfaware", pf))
			r1 = append(r1, s.mpkiReductionOver(app, Baseline, "acic", pf))
			r2 = append(r2, s.mpkiReductionOver(app, Baseline, "acic-pfaware", pf))
		}
		t.AddRow(pf, stats.Geomean(s1), stats.Geomean(s2),
			stats.Percent(stats.Mean(r1)), stats.Percent(stats.Mean(r2)))
	}
	return t, nil
}

// HeadroomCapacities are the i-cache sizes (in 64B blocks) of the
// miss-ratio curve: 16KB..256KB around the 32KB baseline.
var HeadroomCapacities = []int{256, 512, 576, 1024, 2048, 4096}

// Headroom reports the fully-associative LRU miss-ratio curve per app.
// The 512→576 step is the Fig 10 "36KB L1i" alternative; a flat step there
// with a deep drop only at much larger sizes is the structural reason
// discretion (ACIC) beats capacity (the paper's §IV-F argument).
func (s *Suite) Headroom() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(analysisCells(apps)...); err != nil {
		return nil, err
	}
	hdr := []string{"app"}
	for _, c := range HeadroomCapacities {
		hdr = append(hdr, fmt.Sprintf("%dKB", c*trace.BlockSize/1024))
	}
	t := &stats.Table{Header: hdr}
	for _, app := range apps {
		a := s.analysisOf(app)
		cells := []any{app}
		for _, m := range analysis.MissRatios(a.Hits, a.Accesses) {
			cells = append(cells, stats.Percent(m))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// PrefetcherBaselines reports the LRU baseline's MPKI and IPC under each
// implemented prefetcher, bracketing the platforms of Figs 10 and 20.
func (s *Suite) PrefetcherBaselines() (*stats.Table, error) {
	apps := s.AppNames()
	platforms := Prefetchers()
	var plan []Cell
	for _, pf := range platforms {
		plan = append(plan, CrossCells(apps, []string{Baseline}, pf)...)
	}
	if err := s.Require(plan...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"prefetcher", "avg MPKI", "gmean IPC"}}
	for _, pf := range platforms {
		var mpki, ipc []float64
		for _, app := range apps {
			res := s.res(app, Baseline, pf)
			mpki = append(mpki, res.MPKI())
			ipc = append(ipc, res.IPC())
		}
		t.AddRow(pf, fmt.Sprintf("%.2f", stats.Mean(mpki)), stats.Geomean(ipc))
	}
	return t, nil
}
