package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// renderAnalyses renders the three figures the analysis cells feed.
func renderAnalyses(t *testing.T, s *Suite) string {
	t.Helper()
	var out strings.Builder
	t1a, err := s.Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	t1b, err := s.Fig1b("media-streaming")
	if err != nil {
		t.Fatal(err)
	}
	hr, err := s.Headroom()
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(t1a.String() + t1b.String() + hr.String())
	return out.String()
}

// TestAnalysisCellsRoundTripThroughStore renders Fig 1a, Fig 1b and
// ext-headroom cold, then from a fresh suite over the same result cache
// and an empty artifact store: the output must be byte-identical and the
// cached render must prepare no workload. Both lanes, since the sampled
// estimates key apart from the full ones.
func TestAnalysisCellsRoundTripThroughStore(t *testing.T) {
	for _, sampleSets := range []int{0, 8} {
		cacheDir := t.TempDir()
		newSuite := func() *Suite {
			s := NewSuite(30_000)
			s.Apps = []string{"media-streaming", "sibench"}
			s.CacheDir = cacheDir
			s.ArtifactDir = t.TempDir()
			s.SampleSets = sampleSets
			return s
		}
		cold := newSuite()
		coldOut := renderAnalyses(t, cold)
		if computed, _, _ := cold.Stats(); computed != 2 {
			t.Errorf("sample-sets %d: cold render computed %d cells, want 2 analysis cells", sampleSets, computed)
		}

		warm := newSuite()
		warmOut := renderAnalyses(t, warm)
		if warmOut != coldOut {
			t.Errorf("sample-sets %d: cached render diverges:\n--- cold ---\n%s--- cached ---\n%s", sampleSets, coldOut, warmOut)
		}
		computed, fromCache, workloads := warm.Stats()
		if computed != 0 || fromCache != 2 || workloads != 0 {
			t.Errorf("sample-sets %d: cached render computed %d, from cache %d, prepared %d workloads; want 0, 2, 0",
				sampleSets, computed, fromCache, workloads)
		}
	}
}

// TestAnalysisCellsStayOutOfGangs requires one app's simulation cells and
// its analysis cell in one ganged batch: only the simulations ride the
// gang (RunGangCells cannot build an analysis), nothing falls back to a
// serial rerun, and every result equals a serial suite's.
func TestAnalysisCellsStayOutOfGangs(t *testing.T) {
	const app = "media-streaming"
	sims := CrossCells([]string{app}, []string{Baseline, "acic", "opt"}, "fdp")
	cells := append(append([]Cell(nil), sims...), analysisCell(app))

	newSuite := func(gangWidth int) *Suite {
		s := NewSuite(30_000)
		s.Apps = []string{app}
		s.gangWidthOverride = gangWidth
		if err := s.Require(cells...); err != nil {
			t.Fatal(err)
		}
		return s
	}
	ganged, serial := newSuite(4), newSuite(0)

	if gs := ganged.GangStats(); gs.Cells != int64(len(sims)) {
		t.Errorf("gangs produced %d cells, want the %d simulation cells", gs.Cells, len(sims))
	}
	if n := ganged.serialReruns.Load(); n != 0 {
		t.Errorf("%d cells fell back to serial reruns", n)
	}
	for _, c := range cells {
		if got, want := ganged.planned(c), serial.planned(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ganged result differs from serial:\n%+v\n%+v", c, got, want)
		}
	}
	if ganged.planned(analysisCell(app)).Analysis == nil {
		t.Error("analysis cell carries no analysis")
	}
}

// TestAnalysisCellRejectsOtherPlatforms: the analysis is platform-free,
// so one cell per app exists; naming it under a prefetcher fails instead
// of storing a duplicate.
func TestAnalysisCellRejectsOtherPlatforms(t *testing.T) {
	s := NewSuite(20_000)
	s.Apps = []string{"sibench"}
	err := s.Require(Cell{App: "sibench", Scheme: AnalysisScheme, Prefetcher: "fdp"})
	if err == nil || !strings.Contains(err.Error(), "analysis") {
		t.Errorf("analysis cell under fdp: err = %v, want a prefetcher error", err)
	}
}
