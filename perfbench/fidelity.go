package main

import (
	"fmt"
	"math"

	"acic/internal/cpu"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/stats"
	"acic/internal/workload"
)

// paperACICSpeedup is the paper's gmean speedup of ACIC over LRU+FDP
// across the datacenter apps (Fig 10).
const paperACICSpeedup = 1.0223

// lookupFn returns one grid cell's result.
type lookupFn func(app, scheme, prefetcher string) (cpu.Result, error)

// paperGrid is every cell of the paper grid -exp fig10,fig18,fig20
// computes: the datacenter apps under every Fig 10 scheme (FDP), the SPEC
// apps under the Fig 18 schemes (FDP), and the datacenter apps under the
// same schemes on the entangling platform (Fig 20).
func paperGrid() []experiments.Cell {
	var dc, spec []string
	for _, p := range workload.Datacenter() {
		dc = append(dc, p.Name)
	}
	for _, p := range workload.SPEC() {
		spec = append(spec, p.Name)
	}
	withBase := func(s []string) []string { return append([]string{experiments.Baseline}, s...) }
	cells := experiments.CrossCells(dc, withBase(experiments.Fig10Schemes), "fdp")
	cells = append(cells, experiments.CrossCells(spec, withBase(experiments.SPECSchemes), "fdp")...)
	return append(cells, experiments.CrossCells(dc, withBase(experiments.SPECSchemes), "entangling")...)
}

// fidelity scores the simulated model against the paper. Only partly
// validated: Table III's MPKI was the target the workload profiles were
// tuned to, so fid.mpki_rel_err is not held out; the Fig 10 speedup was
// never tuned against, so fid.acic_speedup_err is.
func (r *run) fidelity(get lookupFn) error {
	apps := workload.Datacenter()
	var relErr float64
	acic := make([]float64, len(apps))
	opt := make([]float64, len(apps))
	// cycles[i][a] is column i's cycles on app a; column 0 is the baseline.
	cols := append([]string{experiments.Baseline}, experiments.Fig10Schemes...)
	cycles := make([][]int64, len(cols))
	for i := range cycles {
		cycles[i] = make([]int64, len(apps))
	}
	for a, p := range apps {
		for i, sch := range cols {
			res, err := get(p.Name, sch, "fdp")
			if err != nil {
				return fmt.Errorf("fidelity: %s|%s|fdp: %w", p.Name, sch, err)
			}
			cycles[i][a] = res.Cycles
			switch sch {
			case experiments.Baseline:
				relErr += math.Abs(res.MPKI()-p.PaperMPKI) / p.PaperMPKI
			case "acic":
				acic[a] = float64(res.Cycles)
			case "opt":
				opt[a] = float64(res.Cycles)
			}
		}
		acic[a] = float64(cycles[0][a]) / acic[a]
		opt[a] = float64(cycles[0][a]) / opt[a]
	}
	gACIC, gOPT := stats.Geomean(acic), stats.Geomean(opt)

	// A Fig 10 column is dead when its per-app cycles equal the baseline's,
	// or any other column's, on every app: the grid cannot tell its
	// mechanism apart from another. Every member of a group of identical
	// columns counts.
	var dead []string
	for i := 1; i < len(cols); i++ {
		for j := range cols {
			if j != i && equalInts(cycles[i], cycles[j]) {
				dead = append(dead, fmt.Sprintf("%s(=%s)", cols[i], cols[j]))
				break
			}
		}
	}

	r.set("fid.mpki_rel_err", relErr/float64(len(apps)), "ratio")
	r.set("fid.acic_speedup_err", math.Abs(gACIC-paperACICSpeedup), "ratio")
	r.set("fid.dead_schemes", float64(len(dead)), "count")
	r.info("acic gmean speedup (simulated)", fmt.Sprintf("%.4f (paper %.4f)", gACIC, paperACICSpeedup))
	r.info("opt gmean speedup (simulated)", fmt.Sprintf("%.4f", gOPT))
	r.info("share of LRU->OPT gap closed", fmt.Sprintf("%.3f", (gACIC-1)/(gOPT-1)))
	r.info("dead Fig 10 columns", dead)
	r.info("validation", "partial: MPKI was a profile-tuning target (not held out); the ACIC speedup is held out")
	return nil
}

func equalInts(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// storeLookup reads cell results from a result store through the
// engine's DiskCache, keyed by experiments.Suite.CellKey. It never
// simulates: a cell missing from the store is an error.
func (r *run) storeLookup(resDir string) (lookupFn, error) {
	s := experiments.NewSuite(r.n)
	store, err := engine.NewDiskCache[experiments.Cell, cpu.Result](resDir, s.CellKey)
	if err != nil {
		return nil, err
	}
	return func(app, scheme, pf string) (cpu.Result, error) {
		res, ok := store.Load(experiments.Cell{App: app, Scheme: scheme, Prefetcher: pf})
		if !ok {
			return res, fmt.Errorf("not in the result store %s", resDir)
		}
		return res, nil
	}, nil
}
