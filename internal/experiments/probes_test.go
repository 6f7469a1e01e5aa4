package experiments

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"acic/internal/core"
	"acic/internal/icache"
	"acic/internal/policy"
	"acic/internal/workload"
)

// TestCellResultPlainEncodingUnchanged: a plain cell's stored value
// encodes byte-identically to a bare cpu.Result, which is what lets a
// result store written before probes existed serve every plain cell
// without a cacheSchemaVersion bump (and lets cpu.Result readers decode
// probe entries, ignoring the extra field).
func TestCellResultPlainEncodingUnchanged(t *testing.T) {
	prof, _ := workload.ByName("sibench")
	w := Prepare(prof, 20_000)
	r, err := runCell(w, "acic", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Probe != nil {
		t.Fatal("plain cell carries a probe")
	}
	plain, _ := json.Marshal(r.Result)
	cell, _ := json.Marshal(r)
	if string(plain) != string(cell) {
		t.Fatalf("plain CellResult encodes differently from cpu.Result:\n%s\n%s", cell, plain)
	}
	p, err := runCell(w, admitProbeScheme, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := json.Marshal(p)
	var back CellResult
	if err := json.Unmarshal(enc, &back); err != nil || !reflect.DeepEqual(back, p) {
		t.Fatalf("probe cell does not round-trip: %v\n%+v\n%+v", err, back, p)
	}
	if p.Result != r.Result {
		t.Error("admission probe perturbs the simulation it observes")
	}
}

// TestDefaultRowsArePlainACIC pins that the Fig 15 "default" row and the
// ablation's "none (default)" row are the plain acic cell, and that the
// configurations those rows used to build by hand — an untouched
// core.DefaultConfig(), and one with EvictTrain set to EvictTrainNone —
// simulate exactly the acic scheme.
func TestDefaultRowsArePlainACIC(t *testing.T) {
	if Fig15Variants[0] != (Variant{"default", "acic"}) {
		t.Errorf("Fig 15 default row = %+v", Fig15Variants[0])
	}
	if evictTrainModes[0] != (Variant{"none (default)", "acic"}) {
		t.Errorf("ablation default row = %+v", evictTrainModes[0])
	}
	none := core.DefaultConfig()
	none.EvictTrain = core.EvictTrainNone
	if !reflect.DeepEqual(none, core.DefaultConfig()) {
		t.Fatal("EvictTrainNone is not the default eviction training")
	}
	prof, _ := workload.ByName("media-streaming")
	w := Prepare(prof, 30_000)
	want, err := Run(w, "acic", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sub := icache.MustNew(icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Policy: policy.NewLRU(), ACIC: &none})
	got, err := RunSubsystem(w, sub, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("hand-built default config diverges from the acic cell:\n%+v\n%+v", got, want)
	}
}

// TestACICVariantSchemes: every acic@ variant builds and runs, no variant
// leaks into SchemeNames (so "scheme=all" stays the plain grid), every
// sweep row names a buildable scheme, and unknown variants fail.
func TestACICVariantSchemes(t *testing.T) {
	prof, _ := workload.ByName("sibench")
	w := Prepare(prof, 20_000)
	names := SchemeNames()
	for _, v := range acicVariants {
		scheme := "acic@" + v.name
		if slices.Contains(names, scheme) {
			t.Errorf("%s is listed in SchemeNames", scheme)
		}
		r, err := runCell(w, scheme, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if (r.Probe != nil) != (v.probe != nil) {
			t.Errorf("%s: probe = %v, want probe variant %v", scheme, r.Probe != nil, v.probe != nil)
		}
	}
	for _, v := range append(slices.Clone(Fig15Variants), evictTrainModes...) {
		if _, err := NewScheme(v.Scheme, w); err != nil {
			t.Errorf("row %q: %v", v.Name, err)
		}
	}
	for _, bad := range []string{"acic@no-such-variant", "acic@", "lru@2k-hrt"} {
		if _, err := NewScheme(bad, w); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("NewScheme(%q) = %v, want unknown scheme", bad, err)
		}
	}
}

// TestGangProbeTalliesMatchSerial: probe cells ganged with plain and
// variant members carry exactly the tallies (and results) of serial runs.
func TestGangProbeTalliesMatchSerial(t *testing.T) {
	prof, _ := workload.ByName("data-caching")
	w := Prepare(prof, 40_000)
	cells := []GangCell{
		{Scheme: "lru"},
		{Scheme: deltaProbeScheme},
		{Scheme: "acic@10bit-history"},
		{Scheme: lifetimeProbeScheme},
		{Scheme: admitProbeScheme},
	}
	opts := DefaultOptions()
	gang, _, errs := RunGangCells(w, cells, opts)
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.Scheme, errs[i])
		}
		want, err := runCell(w, c.Scheme, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gang[i], want) {
			t.Errorf("%s: gang %+v\nserial %+v", c.Scheme, gang[i].Probe, want.Probe)
		}
	}
}

// TestSuiteGangProbesMatchSerial: the suite's gang scheduler renders the
// probe figures byte-identically to per-cell execution.
func TestSuiteGangProbesMatchSerial(t *testing.T) {
	render := func(gangSize int) string {
		s := smallSuite(t)
		s.gangWidthOverride = gangSize
		var out strings.Builder
		for _, slug := range []string{"fig3b", "fig12a", "fig13"} {
			e, _ := LookupExperiment(slug)
			got, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", slug, err)
			}
			out.WriteString(got)
		}
		if gangSize > 1 && s.GangStats().Gangs == 0 {
			t.Error("gang suite ran no gangs")
		}
		return out.String()
	}
	if serial, gang := render(0), render(8); serial != gang {
		t.Errorf("gang probe figures diverge:\n--- serial ---\n%s--- gang ---\n%s", serial, gang)
	}
}

// TestSampledVariantCellsCached: in the set-sampled lane a second
// fig15,fig6 render over the same result cache computes nothing and prints
// identical bytes, and sampled variant/probe cells never share a key with
// their full-lane counterparts.
func TestSampledVariantCellsCached(t *testing.T) {
	dir := t.TempDir()
	render := func() (string, int64) {
		s := smallSuite(t)
		s.SampleSets = 8
		s.CacheDir = dir
		var out strings.Builder
		for _, slug := range []string{"fig15", "fig6"} {
			e, _ := LookupExperiment(slug)
			got, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", slug, err)
			}
			out.WriteString(got)
		}
		computed, _, _ := s.Stats()
		return out.String(), computed
	}
	first, computed := render()
	// fig15: 2 apps × (lru, acic, 10 variants); fig6: one probe cell.
	if computed != 2*12+1 {
		t.Errorf("cold sampled render computed %d cells, want %d", computed, 2*12+1)
	}
	second, computed := render()
	if computed != 0 {
		t.Errorf("cached sampled render computed %d cells", computed)
	}
	if second != first {
		t.Errorf("cached sampled render differs:\n%s\n%s", first, second)
	}
	full, sampled := smallSuite(t), smallSuite(t)
	sampled.SampleSets = 8
	for _, scheme := range []string{"acic@10bit-history", lifetimeProbeScheme} {
		c := Cell{App: "media-streaming", Scheme: scheme, Prefetcher: "fdp"}
		if full.CellKey(c) == sampled.CellKey(c) {
			t.Errorf("%s: full and sampled lanes share a key", scheme)
		}
	}
}
