package experiments

import "acic/internal/stats"

// evictTrainModes are the rows of the CSHR eviction-training ablation: the
// default (plain acic) and the two acic@ variants that train unresolved
// evictions.
var evictTrainModes = []Variant{
	{"none (default)", "acic"},
	{"admit (paper prose)", "acic@evict-admit"},
	{"drop", "acic@evict-drop"},
}

// AblationCSHRDefault evaluates the three readings of the paper's rule for
// CSHR entries evicted before resolution ("benefit of the doubt to the
// i-Filter victim"): train nothing (this repo's default — the Fig 8
// datapath only updates the tables from matched entries), train the victim
// as re-accessed sooner (the literal prose), or train it as later. It
// reports gmean speedup and average MPKI reduction over the baseline.
func AblationCSHRDefault(s *Suite) (*stats.Table, error) {
	apps := s.AppNames()
	schemes := append([]string{Baseline}, variantSchemes(evictTrainModes)...)
	if err := s.Require(CrossCells(apps, schemes, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"evict-training", "gmean speedup", "avg MPKI reduction"}}
	for _, m := range evictTrainModes {
		var speedups, reductions []float64
		for _, app := range apps {
			speedups = append(speedups, s.speedupOver(app, Baseline, m.Scheme, "fdp"))
			reductions = append(reductions, s.mpkiReductionOver(app, Baseline, m.Scheme, "fdp"))
		}
		t.AddRow(m.Name, stats.Geomean(speedups), stats.Percent(stats.Mean(reductions)))
	}
	return t, nil
}
