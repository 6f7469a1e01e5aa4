package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"acic/internal/analysis"
	"acic/internal/branch"
	"acic/internal/cpu"
	"acic/internal/mem"
	"acic/internal/stats"
	"acic/internal/workload"
)

// newTestPipeline builds a pipeline over dir with a small trace.
func newTestPipeline(t *testing.T, n int, dir string) *Pipeline {
	t.Helper()
	pl, err := NewPipeline(PipelineConfig{N: n, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// referenceWorkload prepares app with the whole-trace layer functions —
// the batch computation the fused walk must reproduce. Unlike a pipeline
// workload it keeps the trace's instruction records.
func referenceWorkload(t *testing.T, app string, n int) *Workload {
	t.Helper()
	prof, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown test workload %q", app)
	}
	tr := workload.Generate(prof, n)
	prog := cpu.NewProgram(tr, branch.NewFrontEnd().Annotate(tr))
	prog.EnsureDataLatencies(mem.DefaultConfig())
	return &Workload{
		Profile: prof,
		Prog:    prog,
		Trace:   tr,
		Ann:     prog.Ann,
		Blocks:  prog.Blocks,
		Oracle:  analysis.NewNextUseOracle(prog.Blocks),
		NextAt:  analysis.NextUseArray(prog.Blocks),
	}
}

// assertWorkloadsEqual compares every array the simulator reads, and
// checks got has the prepared shape: a named trace with no instruction
// records.
func assertWorkloadsEqual(t *testing.T, want, got *Workload) {
	t.Helper()
	if want.Profile != got.Profile || want.Trace.Name != got.Trace.Name {
		t.Fatalf("profile mismatch: %v vs %v", got.Profile.Name, want.Profile.Name)
	}
	if len(got.Trace.Insts) != 0 {
		t.Fatalf("prepared workload retains %d instruction records", len(got.Trace.Insts))
	}
	for _, c := range []struct {
		label     string
		want, got any
	}{
		{"branch annotations", want.Ann, got.Ann},
		{"program descriptor arrays", want.Prog.Desc, got.Prog.Desc},
		{"collapsed block sequences", want.Prog.Blocks, got.Prog.Blocks},
		{"data-block arrays", want.Prog.MemBlk, got.Prog.MemBlk},
		{"data-latency timelines", want.Prog.DataLat, got.Prog.DataLat},
		{"successor arrays", want.NextAt, got.NextAt},
	} {
		if !reflect.DeepEqual(c.want, c.got) {
			t.Fatalf("%s differ", c.label)
		}
	}
}

// assertStageCounts checks every stage's (computed, fromStore) counters.
func assertStageCounts(t *testing.T, pl *Pipeline, computed, fromStore int64) {
	t.Helper()
	for _, st := range pl.Stats() {
		if st.Computed != computed || st.FromStore != fromStore {
			t.Errorf("stage %s: computed=%d fromStore=%d, want %d/%d",
				st.Stage, st.Computed, st.FromStore, computed, fromStore)
		}
	}
}

// TestPipelineWarmStoreRoundTrip is the tentpole's core promise: a second
// pipeline over the same store loads every stage (zero regenerations) and
// reconstructs a workload equal, array for array, to the cold one — and
// simulations over both produce bit-identical results.
func TestPipelineWarmStoreRoundTrip(t *testing.T) {
	const app, n = "media-streaming", 30_000
	dir := t.TempDir()

	cold := newTestPipeline(t, n, dir)
	w1, err := cold.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertStageCounts(t, cold, 1, 0)

	warm := newTestPipeline(t, n, dir)
	w2, err := warm.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertStageCounts(t, warm, 0, 1)
	if got := warm.Regenerated(); got != 0 {
		t.Errorf("warm store regenerated %d artifacts, want 0", got)
	}
	assertWorkloadsEqual(t, w1, w2)

	opts := DefaultOptions()
	for _, scheme := range []string{"lru", "acic", "opt"} {
		r1, err1 := Run(w1, scheme, opts)
		r2, err2 := Run(w2, scheme, opts)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", scheme, err1, err2)
		}
		if r1 != r2 {
			t.Errorf("%s: warm-store result diverges:\ncold %+v\nwarm %+v", scheme, r1, r2)
		}
	}
}

// TestPipelineMatchesPrepare pins Prepare and a store-backed pipeline,
// cold and then warm, to the whole-trace reference.
func TestPipelineMatchesPrepare(t *testing.T) {
	const app, n = "sibench", 20_000
	want := referenceWorkload(t, app, n)
	assertWorkloadsEqual(t, want, Prepare(want.Profile, n))

	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		got, err := newTestPipeline(t, n, dir).Workload(app)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		assertWorkloadsEqual(t, want, got)
	}
}

// corruptStore mangles every artifact in dir with the given transform.
func corruptStore(t *testing.T, dir string, mangle func([]byte) []byte) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.actr"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, mangle(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(files)
}

// TestPipelineCorruptArtifactsRegenerate: flipped-bit and truncated store
// entries must be treated as misses — the stages regenerate, the workload
// is still correct, and the rewritten store serves the next run warm.
func TestPipelineCorruptArtifactsRegenerate(t *testing.T) {
	const app, n = "media-streaming", 20_000
	mangles := map[string]func([]byte) []byte{
		"bitflip":  func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"truncate": func(b []byte) []byte { return b[:len(b)/3] },
		"garbage":  func(b []byte) []byte { return []byte("not an artifact") },
	}
	want := referenceWorkload(t, app, n)
	for name, mangle := range mangles {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := newTestPipeline(t, n, dir).Workload(app); err != nil {
				t.Fatal(err)
			}
			if files := corruptStore(t, dir, mangle); files != 4 {
				t.Fatalf("store holds %d artifacts, want 4", files)
			}

			pl := newTestPipeline(t, n, dir)
			got, err := pl.Workload(app)
			if err != nil {
				t.Fatal(err)
			}
			assertWorkloadsEqual(t, want, got)
			assertStageCounts(t, pl, 1, 0) // every stage regenerated

			// The regeneration rewrote the store: next run is warm again.
			rewarmed := newTestPipeline(t, n, dir)
			if _, err := rewarmed.Workload(app); err != nil {
				t.Fatal(err)
			}
			assertStageCounts(t, rewarmed, 0, 1)
		})
	}
}

// TestPipelineWarm exercises the `acic-trace warm` path: Require walks
// each workload once, writing all four stages, and a suite over the same
// store then prepares with zero regenerations.
func TestPipelineWarm(t *testing.T) {
	dir := t.TempDir()
	apps := []string{"media-streaming", "sibench"}
	pl := newTestPipeline(t, 20_000, dir)
	if err := pl.Require(apps...); err != nil {
		t.Fatal(err)
	}
	assertStageCounts(t, pl, 2, 0)
	if n := pl.WorkloadsPrepared(); n != 2 {
		t.Errorf("Require prepared %d workloads, want 2", n)
	}

	s := NewSuite(20_000)
	s.Apps = apps
	s.ArtifactDir = dir
	if err := s.PrepareAll(apps...); err != nil {
		t.Fatal(err)
	}
	for _, st := range s.PrepareStats() {
		if st.Computed != 0 || st.FromStore != 2 {
			t.Errorf("stage %s after warm: computed=%d fromStore=%d, want 0/2", st.Stage, st.Computed, st.FromStore)
		}
	}
}

// renderAll renders the full acic-bench experiment set (every renderer the
// -exp all path drives) against one suite and returns the concatenated
// output bytes.
func renderAll(t *testing.T, s *Suite) string {
	t.Helper()
	var out strings.Builder
	renderers := []struct {
		name string
		run  func() (*stats.Table, error)
	}{
		{"table3", s.Table3},
		{"fig1a", s.Fig1a},
		{"fig1b", func() (*stats.Table, error) { return s.Fig1b("media-streaming") }},
		{"fig3a", s.Fig3a},
		{"fig10", s.Fig10},
		{"fig11", s.Fig11},
		{"fig12a", s.Fig12a},
		{"fig12b", s.Fig12b},
		{"fig13", s.Fig13},
		{"fig14", s.Fig14},
		{"fig15", s.Fig15},
		{"fig16", s.Fig16},
		{"fig17", s.Fig17},
		{"fig18", s.Fig18},
		{"fig19", s.Fig19},
		{"fig20", s.Fig20},
		{"fig21", s.Fig21},
		{"energy", s.Energy},
		{"ext-schemes", s.ExtendedComparison},
		{"ext-pfaware", s.PrefetchAware},
		{"ext-headroom", s.Headroom},
		{"ext-prefetchers", s.PrefetcherBaselines},
		{"ext-evict-train", func() (*stats.Table, error) { return AblationCSHRDefault(s) }},
	}
	for _, r := range renderers {
		tbl, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		out.WriteString("=== " + r.name + "\n" + tbl.String())
	}
	// The two histogram experiments of the -exp all set.
	h3b, wrong, err := s.Fig3b("media-streaming")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range h3b.Fractions() {
		out.WriteString(stats.Percent(f) + " ")
	}
	out.WriteString(stats.Percent(wrong) + "\n")
	h6, err := s.Fig6("data-caching")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range h6.Fractions() {
		out.WriteString(stats.Percent(f) + " ")
	}
	out.WriteString("\n")
	return out.String()
}

// TestExpAllColdVsWarmStoreByteIdentical is the acceptance check: a warm
// artifact store must leave the full experiment output byte-identical to a
// cold run while every prepare stage reports zero regenerations.
func TestExpAllColdVsWarmStoreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment set in -short mode")
	}
	const n = 12_000
	apps := []string{"media-streaming", "sibench"}
	dir := t.TempDir()

	coldSuite := NewSuite(n)
	coldSuite.Apps = apps
	coldSuite.ArtifactDir = dir
	cold := renderAll(t, coldSuite)
	for _, st := range coldSuite.PrepareStats() {
		if st.FromStore != 0 {
			t.Errorf("cold run loaded %d %s artifacts from an empty store", st.FromStore, st.Stage)
		}
		if st.Computed == 0 {
			t.Errorf("cold run computed no %s artifacts", st.Stage)
		}
	}

	warmSuite := NewSuite(n)
	warmSuite.Apps = apps
	warmSuite.ArtifactDir = dir
	warm := renderAll(t, warmSuite)

	if warm != cold {
		t.Errorf("warm-store output diverges from cold run:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	for _, st := range warmSuite.PrepareStats() {
		if st.Computed != 0 {
			t.Errorf("warm run regenerated %d %s artifacts, want 0 (prepare should be skipped)", st.Computed, st.Stage)
		}
		if st.Computed == 0 && st.FromStore == 0 {
			t.Errorf("warm run neither computed nor loaded %s artifacts", st.Stage)
		}
	}
}
