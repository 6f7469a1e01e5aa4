package experiments

import (
	"fmt"
	"math"

	"acic/internal/cache"
	"acic/internal/core"
	"acic/internal/cpu"
	"acic/internal/icache"
	"acic/internal/policy"
	"acic/internal/stats"
)

// Every simulation the evaluation runs is a Cell — including the ACIC
// configuration variants of Fig 15 and the CSHR eviction-training
// ablation, and the instrumented runs behind the mechanism figures
// (Figs 3b, 6, 12a, 13). Both are named in the scheme string as
// "acic@<variant>": a variant is a named mutation of core.DefaultConfig(),
// and a probe variant additionally instruments the subsystem and returns
// integer tallies alongside the cpu.Result. Variant names stay out of
// SchemeNames, so "scheme=all" queries and the plain grid are unchanged;
// the variant already sits in the scheme component of the cache key, so
// variant and probe cells are cached, ganged, shipped to workers and
// counted like any other cell.

// CellResult is the value a cell produces and the result cache stores:
// the simulation result plus, for probe cells, the probe's tallies, or,
// for an app's analysis cell (analyses.go), only the analysis tallies.
// The Result is embedded, so a plain cell's entry (nil Probe and
// Analysis, both omitted) encodes byte-identically to a bare cpu.Result
// and stores written before probes existed read back unchanged.
type CellResult struct {
	cpu.Result
	Probe    *Probe    `json:",omitempty"`
	Analysis *Analysis `json:",omitempty"`
}

// Probe holds the integer tallies a probe cell records; each probe fills
// the fields its figure reads. Renderers derive fractions from the counts,
// so a cached probe renders exactly like a fresh one.
type Probe struct {
	// Buckets are histogram bucket counts, overflow last (Fig 3b reuse
	// deltas, Fig 6 CSHR lifetimes).
	Buckets []uint64 `json:",omitempty"`
	// Wrong counts Fig 3b insertions whose reuse delta is positive.
	Wrong uint64 `json:",omitempty"`
	// Correct and Count are Fig 12a's per-range bypass-accuracy tallies,
	// indexed like Fig12aRanges.
	Correct []uint64 `json:",omitempty"`
	Count   []uint64 `json:",omitempty"`
	// Admitted and Decisions are ACIC's admission counters (Fig 13).
	Admitted  uint64 `json:",omitempty"`
	Decisions uint64 `json:",omitempty"`
}

// histogram rebuilds the stats histogram the probe's buckets were counted
// under.
func (p *Probe) histogram(edges []float64) *stats.Histogram {
	h := stats.NewHistogram(edges...)
	copy(h.Counts, p.Buckets)
	for _, c := range p.Buckets {
		h.NSamples += c
	}
	return h
}

// fraction returns num/den, or 0 when den is 0.
func fraction(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// acicVariant is one "acic@<name>" scheme: a mutation of
// core.DefaultConfig() over the standard LRU i-cache. A probe variant
// also instruments the built subsystem; its probe returns the function
// that reads the tallies once the run is over.
type acicVariant struct {
	name   string
	mutate func(*core.Config)
	// nextUse attaches the next-use oracle to the subsystem (probes that
	// consult it).
	nextUse bool
	probe   func(w *Workload, sub *icache.Complex) func() *Probe
}

// acicVariants is the single table behind every acic@ scheme: the Fig 15
// sensitivity axes, the CSHR eviction-training modes, and the mechanism
// probes. The Fig 15 "default" row and the ablation's "none" row are the
// plain "acic" cell, not variants.
var acicVariants = []acicVariant{
	{name: "2k-hrt", mutate: func(c *core.Config) { c.Predictor.HRTEntries = 2048 }},
	{name: "512-hrt", mutate: func(c *core.Config) { c.Predictor.HRTEntries = 512 }},
	{name: "8bit-history", mutate: func(c *core.Config) { c.Predictor.HistoryBits = 8 }},
	{name: "10bit-history", mutate: func(c *core.Config) { c.Predictor.HistoryBits = 10 }},
	{name: "2bit-counter", mutate: func(c *core.Config) { c.Predictor.CounterBits = 2 }},
	{name: "8bit-counter", mutate: func(c *core.Config) { c.Predictor.CounterBits = 8 }},
	{name: "8-slot-filter", mutate: func(c *core.Config) { c.FilterSlots = 8 }},
	{name: "32-slot-filter", mutate: func(c *core.Config) { c.FilterSlots = 32 }},
	{name: "7bit-cshr-tag", mutate: func(c *core.Config) { c.CSHR.TagBits = 7 }},
	{name: "27bit-cshr-tag", mutate: func(c *core.Config) { c.CSHR.TagBits = 27 }},
	{name: "evict-admit", mutate: func(c *core.Config) { c.EvictTrain = core.EvictTrainAdmit }},
	{name: "evict-drop", mutate: func(c *core.Config) { c.EvictTrain = core.EvictTrainDrop }},
	{name: "delta-probe", mutate: func(c *core.Config) { c.Variant = core.VariantAlwaysAdmit },
		nextUse: true, probe: deltaProbe},
	// Lifetimes are measured with an effectively unbounded CSHR so that
	// "would never resolve" is separated from "evicted at 256 entries", as
	// the paper's incremental-capacity study does.
	{name: "lifetime-probe", mutate: func(c *core.Config) { c.CSHR.Ways = 4096 }, probe: lifetimeProbe},
	{name: "admit-probe", probe: admitProbe},
}

// Probe cells of the mechanism figures.
const (
	deltaProbeScheme    = "acic@delta-probe"
	lifetimeProbeScheme = "acic@lifetime-probe"
	admitProbeScheme    = "acic@admit-probe"
)

// newACICVariant builds the named acic@ variant and, for a probe variant,
// instruments it.
func newACICVariant(name string, w *Workload, sample cache.SampleFilter) (icache.Subsystem, func() *Probe, error) {
	for _, v := range acicVariants {
		if v.name != name {
			continue
		}
		cc := core.DefaultConfig()
		if v.mutate != nil {
			v.mutate(&cc)
		}
		c := icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Policy: policy.NewLRU(), ACIC: &cc, Sample: sample}
		if v.nextUse {
			c.NextUse = w.Oracle.Func()
		}
		sub, err := icache.New(c)
		if err != nil {
			return nil, nil, err
		}
		if v.probe == nil {
			return sub, nil, nil
		}
		return sub, v.probe(w, sub), nil
	}
	return nil, nil, fmt.Errorf("experiments: unknown scheme %q", "acic@"+name)
}

// deltaProbe histograms, per admission decision of the always-admit
// design, the difference between the next-use distance of the block moving
// from the i-Filter into the i-cache and that of the block OPT would evict
// from the target set (Fig 3b); positive deltas are wrong insertions.
func deltaProbe(w *Workload, sub *icache.Complex) func() *Probe {
	h := stats.NewHistogram(Fig3bEdges...)
	var wrong uint64
	sub.ACIC().OnDecision = func(d core.Decision) {
		dIn := clampDist(w.Oracle.NextUse(d.Victim, d.AccessIdx) - d.AccessIdx)
		// The outgoing block OPT would pick: the set line with the furthest
		// next use at decision time.
		set := sub.L1().SetIndex(d.Victim)
		dOut := float64(0)
		for _, ln := range sub.L1().Lines(set) {
			if !ln.Valid {
				continue
			}
			if v := clampDist(w.Oracle.NextUse(ln.Block, d.AccessIdx) - d.AccessIdx); v > dOut {
				dOut = v
			}
		}
		delta := dIn - dOut
		h.Add(delta)
		if delta > 0 {
			wrong++
		}
	}
	return func() *Probe { return &Probe{Buckets: h.Counts, Wrong: wrong} }
}

func clampDist(d int64) float64 {
	if d >= cacheNever {
		return 1e12
	}
	return float64(d)
}

const cacheNever = int64(1) << 61

// lifetimeProbe histograms the number of comparisons during CSHR entry
// lifetimes (Fig 6). Entries evicted unresolved, and those still
// unresolved when the run ends, land in the overflow bucket — the paper's
// "InF" bar.
func lifetimeProbe(_ *Workload, sub *icache.Complex) func() *Probe {
	h := stats.NewHistogram(Fig6Edges...)
	a := sub.ACIC()
	a.AgeSamples = func(age int64, resolved bool) {
		if !resolved {
			age = math.MaxInt32 // overflow bucket
		}
		h.Add(float64(age))
	}
	return func() *Probe {
		for range a.CSHR.Occupancy() {
			h.Add(math.MaxInt32)
		}
		return &Probe{Buckets: h.Counts}
	}
}

// admitProbe tallies the default design's bypass accuracy per Fig 12a
// next-use window and its admission counters (Fig 13). A decision is
// correct when it admits exactly the victims re-used sooner than their
// contenders.
func admitProbe(w *Workload, sub *icache.Complex) func() *Probe {
	p := &Probe{Correct: make([]uint64, len(Fig12aRanges)), Count: make([]uint64, len(Fig12aRanges))}
	a := sub.ACIC()
	a.OnDecision = func(d core.Decision) {
		dIn := w.Oracle.NextUse(d.Victim, d.AccessIdx) - d.AccessIdx
		dOut := w.Oracle.NextUse(d.Contender, d.AccessIdx) - d.AccessIdx
		ideal := dIn < dOut
		near := min(dIn, dOut)
		for ri, bound := range Fig12aRanges {
			if bound != 0 && near >= bound {
				continue
			}
			p.Count[ri]++
			if ideal == d.Admitted {
				p.Correct[ri]++
			}
		}
	}
	return func() *Probe {
		p.Admitted, p.Decisions = a.Admitted, a.Decisions
		return p
	}
}
