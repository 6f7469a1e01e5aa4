package experiments

import (
	"fmt"

	"acic/internal/analysis"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
	"acic/internal/trace"
	"acic/internal/workload"
)

// prepareWindow is the number of instructions the fused walk generates
// and consumes at a time. 64k instructions keep the resident Inst window
// around 2 MB while staying far above the per-window fixed costs; the
// window affects only peak memory, never the prepared arrays or the bytes
// of any artifact.
const prepareWindow = 1 << 16

// walk is the cold prepare: one windowed pass drives generation
// (workload.GenerateStream), branch annotation and descriptor/latency
// derivation (cpu.ProgramBuilder), the successor array
// (analysis.NextUseBuilder) and — when a store is configured — the packed
// trace encoding (trace.PackedEncoder), so the full instruction image
// never exists in memory: peak residency is O(window) Inst records plus
// the per-instruction byte/array state the simulator needs anyway.
//
// The result equals the whole-trace layer functions' (workload.Generate,
// branch.FrontEnd.Annotate, cpu.NewProgram, Program.EnsureDataLatencies,
// analysis.NextUseArray): the generator, the front end, and the data
// hierarchy are sequential state machines, so per-window feeding equals
// the whole-trace pass, and the forward last-seen patching in
// NextUseBuilder equals the backward NextUseArray sweep (pinned by the
// per-layer differential tests and TestPipelineStreamedMatchesBatch). The
// trace artifact is one INSZ section, byte-identical to trace.Write of
// the generated trace.
//
// A walk that dies mid-window (the workload group's guard turns a panic
// into an error, and retries a transient one) has written nothing: every
// artifact is written after the last window.
func (pl *Pipeline) walk(app string, prof workload.Profile) (*Workload, error) {
	builder := cpu.NewProgramBuilder(prof.Name, pl.memCfg, pl.n)
	nextUse := analysis.NewNextUseBuilder(pl.n / 8)
	var enc *trace.PackedEncoder
	if pl.traceStore != nil {
		enc = trace.NewPackedEncoder(pl.n)
	}
	stream := workload.GenerateStream(prof, pl.n, prepareWindow)
	for chunk := stream.Next(); chunk != nil; chunk = stream.Next() {
		if builder.Len() > 0 {
			// A fault site between windows; the workload group's compute
			// boundary already precedes the first.
			faults.PanicPoint("stream-window")
		}
		if enc != nil {
			enc.Append(chunk)
		}
		nextUse.Append(builder.Append(chunk))
	}
	prog := builder.Finish()
	nextAt := nextUse.Finish()
	if len(nextAt) != len(prog.Blocks) {
		return nil, fmt.Errorf("experiments: successor array length %d != %d block accesses", len(nextAt), len(prog.Blocks))
	}
	// Persist so later runs load instead of walking. Sections stream to
	// the entry files one at a time: assembling each whole container in
	// memory first would sit on top of the finished Program.
	if enc != nil {
		streamArtifact(pl.traceStore, app, prof.Name,
			func() (string, []byte) { return trace.SecInstsZ, enc.Finish() })
		streamArtifact(pl.programStore, app, prof.Name,
			func() (string, []byte) { return trace.SecAnnot, prog.AnnotationBytes() },
			func() (string, []byte) { return trace.SecDesc, prog.Desc },
			func() (string, []byte) { return trace.SecBlocks, trace.EncodeUint64sDelta(prog.Blocks) })
		streamArtifact(pl.nextatStore, app, "nextat",
			func() (string, []byte) { return trace.SecNextAt, trace.EncodeInt64sDelta(nextAt) })
		streamArtifact(pl.datalatStore, app, "datalat",
			func() (string, []byte) { return trace.SecDataLat, trace.EncodeInt16s(prog.DataLat) })
	}
	pl.walked.Add(1)
	return newWorkload(prof, prog, nextAt), nil
}

// streamArtifact writes one artifact container straight to a store entry
// file, materializing each section payload only while it is being written
// (the sections are closures so encodings never coexist). Best-effort: any
// failure aborts the entry and the artifact is simply regenerated later.
// The deferred Abort also discards the entry if a section panics.
func streamArtifact[V any](c *engine.DiskCache[string, V], app, name string, sections ...func() (string, []byte)) {
	e, ok := c.BeginStream(app)
	if !ok {
		return
	}
	defer e.Abort() // no-op after Commit
	cw, err := trace.NewContainerWriter(e.F, name)
	if err != nil {
		return
	}
	for _, section := range sections {
		tag, payload := section()
		if err := cw.WriteSection(tag, payload); err != nil {
			return
		}
	}
	if cw.Close() == nil {
		e.Commit()
	}
}
