package experiments

import (
	"bytes"
	"os"
	"testing"

	"acic/internal/trace"
)

// TestPipelineStreamedMatchesBatch pins the fused walk against the
// whole-trace layer functions at a length that crosses two real window
// boundaries (and ends in a partial window): every prepared array equal,
// one computed per stage, and the trace artifact a single INSZ section
// byte-identical to trace.Write of the generated trace.
func TestPipelineStreamedMatchesBatch(t *testing.T) {
	const app, n = "media-streaming", 2*prepareWindow + 5000
	want := referenceWorkload(t, app, n)
	dir := t.TempDir()
	pl := newTestPipeline(t, n, dir)
	got, err := pl.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, want, got)
	assertStageCounts(t, pl, 1, 0)

	path, spans := findArtifactWithSection(t, dir, trace.SecInstsZ)
	if len(spans) != 1 {
		t.Fatalf("trace artifact has %d INSZ sections, want 1", len(spans))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := trace.Write(&ref, want.Trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref.Bytes()) {
		t.Errorf("trace artifact (%d bytes) differs from trace.Write (%d bytes)", len(data), ref.Len())
	}
}

// TestPipelineStreamedWritesWarmStore is the artifact-compatibility check:
// a cold walk fills the store, and a second pipeline over it loads every
// stage with zero regenerations and reconstructs the reference workload.
func TestPipelineStreamedWritesWarmStore(t *testing.T) {
	const app, n = "sibench", 20_000
	want := referenceWorkload(t, app, n)
	dir := t.TempDir()
	if _, err := newTestPipeline(t, n, dir).Workload(app); err != nil {
		t.Fatal(err)
	}

	warm := newTestPipeline(t, n, dir)
	got, err := warm.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	if reg := warm.Regenerated(); reg != 0 {
		t.Errorf("warm pipeline regenerated %d artifacts, want 0", reg)
	}
	assertStageCounts(t, warm, 0, 1)
	assertWorkloadsEqual(t, want, got)
}

// TestPipelineStreamedNoStore covers the store-less pipeline (ArtifactDir
// unset): preparation still walks and still matches the reference.
func TestPipelineStreamedNoStore(t *testing.T) {
	const app, n = "tpcc", 15_000
	want := referenceWorkload(t, app, n)
	pl, err := NewPipeline(PipelineConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, want, got)
	assertStageCounts(t, pl, 1, 0)
}
