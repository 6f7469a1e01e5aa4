package experiments

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"acic/internal/analysis"
	"acic/internal/branch"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/mem"
	"acic/internal/trace"
	"acic/internal/workload"
)

// Pipeline prepares workloads and persists what preparing them derives as
// four content-addressed stage artifacts,
//
//	trace   — the synthetic instruction stream (one packed INSZ section)
//	program — branch annotations, descriptors, block sequence (ANNO+DESC+BLKS)
//	nextat  — next-use successor array (NXTA)
//	datalat — data-side latency timeline (DLAT)
//
// in the trace codec's v2 container format. A cold workload is prepared
// by one fused windowed walk (stream.go) that produces all four at once;
// a warm one is decoded from the store (loadWorkload). Stage keys share
// the result cache's derivation (keys.go: schema version, simulator-config
// digest, profile digest, trace length), so a config edit invalidates
// prepared artifacts and cached results together. Artifacts are
// best-effort: an unreadable, truncated, corrupt, or version-mismatched
// entry is a miss — corrupt ones are quarantined — and one walk rewrites
// all four, so the store can only make preparation faster, never wrong.
//
// Concurrent workers in one process share a single preparation per
// workload through the workload group's singleflight; concurrent
// processes share through the store's atomic temp-file-and-rename writes.
// Every prepared Workload has the same shape, cold or warm: the arrays the
// simulator reads, and a Trace that names the workload but carries no
// instruction records.
type Pipeline struct {
	n      int
	memCfg mem.Config
	lookup func(string) (workload.Profile, bool)

	workloads *engine.Group[string, *Workload]

	// Stage stores, all nil when no store is configured. Entries are
	// written section by section through streamArtifact, so the stores
	// only decode.
	traceStore   *engine.DiskCache[string, *trace.Trace]
	programStore *engine.DiskCache[string, programParts]
	nextatStore  *engine.DiskCache[string, []int64]
	datalatStore *engine.DiskCache[string, []int16]

	walked atomic.Int64 // workloads prepared by the fused walk
	loaded atomic.Int64 // workloads decoded from the store
}

// PipelineConfig configures NewPipeline.
type PipelineConfig struct {
	// N is the trace length in instructions (0 = DefaultTraceLen).
	N int
	// Dir enables the on-disk artifact store in that directory ("" =
	// in-memory memoization only).
	Dir string
	// Pool executes batch work (Require); nil creates a default pool.
	// Demand-driven preparation (Workload) runs inline on the calling
	// goroutine either way.
	Pool *engine.Pool
	// Lookup resolves app names to profiles (nil = workload.ByName).
	Lookup func(string) (workload.Profile, bool)
}

// NewPipeline builds the pipeline. When the artifact store cannot be
// opened the returned pipeline still works (workloads are prepared in
// memory) and the error reports why persistence is off — callers that
// want the store to be load-bearing should fail on it.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.N <= 0 {
		cfg.N = DefaultTraceLen()
	}
	if cfg.Pool == nil {
		cfg.Pool = engine.NewPool(0)
	}
	if cfg.Lookup == nil {
		cfg.Lookup = workload.ByName
	}
	pl := &Pipeline{n: cfg.N, memCfg: mem.DefaultConfig(), lookup: cfg.Lookup}
	pl.workloads = engine.NewGroup(cfg.Pool, pl.prepare)
	// Transient failures (injected faults, MarkTransient-wrapped errors)
	// are re-attempted with jittered backoff; deterministic ones — a bad
	// profile, a genuine panic — fail the workload immediately. A retried
	// walk starts from scratch and has written nothing yet.
	pl.workloads.Retry = engine.DefaultRetry()

	var err error
	if cfg.Dir != "" {
		err = pl.openStore(cfg.Dir)
	}
	return pl, err
}

// stageKey returns the content-addressing key function for one stage.
func (pl *Pipeline) stageKey(stage string) func(string) string {
	return func(app string) string {
		prof, ok := pl.lookup(app)
		return storeKeyPrefix(profileDigest(prof, ok, app), pl.n) + "|stage:" + stage
	}
}

// openStore attaches the four stage stores to dir. All artifacts use the
// trace codec's container format with the ".actr" extension, so
// `acic-trace inspect` can describe any file in the store.
func (pl *Pipeline) openStore(dir string) error {
	traces, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("trace"), nil,
		func(_ string, data []byte) (*trace.Trace, error) {
			return trace.Read(bytes.NewReader(data))
		})
	if err != nil {
		return err
	}
	programs, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("program"), nil, decodeProgram)
	if err != nil {
		return err
	}
	nextats, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("nextat"), nil,
		func(_ string, data []byte) ([]int64, error) {
			payload, err := decodeSection(data, trace.SecNextAt)
			if err != nil {
				return nil, err
			}
			return trace.DecodeInt64sDelta(payload)
		})
	if err != nil {
		return err
	}
	datalats, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("datalat"), nil,
		func(_ string, data []byte) ([]int16, error) {
			payload, err := decodeSection(data, trace.SecDataLat)
			if err != nil {
				return nil, err
			}
			return trace.DecodeInt16s(payload)
		})
	if err != nil {
		return err
	}
	pl.traceStore, pl.programStore, pl.nextatStore, pl.datalatStore = traces, programs, nextats, datalats
	return nil
}

// programParts is a decoded program artifact: the arrays cpu.NewProgram
// derives from the trace. MemBlk and the run-ahead bitmap are cheap local
// recomputes, so they are not persisted.
type programParts struct {
	ann    []branch.Annotation
	desc   []uint8
	blocks []uint64
}

// decodeProgram parses a program artifact's ANNO, DESC and BLKS sections.
func decodeProgram(_ string, data []byte) (programParts, error) {
	_, secs, err := trace.ReadContainer(bytes.NewReader(data))
	if err != nil {
		return programParts{}, err
	}
	var payloads [3][]byte
	for i, tag := range []string{trace.SecAnnot, trace.SecDesc, trace.SecBlocks} {
		var ok bool
		if payloads[i], ok = trace.FindSection(secs, tag); !ok {
			return programParts{}, fmt.Errorf("experiments: program artifact missing %s section", tag)
		}
	}
	ann, err := cpu.AnnotationsFromBytes(payloads[0])
	if err != nil {
		return programParts{}, err
	}
	blocks, err := trace.DecodeUint64sDelta(payloads[2])
	if err != nil {
		return programParts{}, err
	}
	return programParts{ann: ann, desc: payloads[1], blocks: blocks}, nil
}

// decodeSection unwraps a single-section container.
func decodeSection(data []byte, tag string) ([]byte, error) {
	_, secs, err := trace.ReadContainer(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	payload, ok := trace.FindSection(secs, tag)
	if !ok {
		return nil, fmt.Errorf("experiments: artifact missing %s section", tag)
	}
	return payload, nil
}

// prepare is the workload group's compute: decode the four artifacts when
// the store holds them all, otherwise walk.
func (pl *Pipeline) prepare(app string) (*Workload, error) {
	prof, ok := pl.lookup(app)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", app)
	}
	if w := pl.loadWorkload(app, prof); w != nil {
		return w, nil
	}
	return pl.walk(app, prof)
}

// loadWorkload decodes all four stage artifacts and reassembles the
// workload, or returns nil when any is missing, corrupt (the store
// quarantines it), or inconsistent with the others — the caller then walks
// and rewrites all four. Every artifact is loaded even after a miss, so
// each corrupt one is quarantined. The decoded trace's instruction records
// are dropped once the program has derived MemBlk from them, so a loaded
// workload has the same shape as a walked one.
func (pl *Pipeline) loadWorkload(app string, prof workload.Profile) *Workload {
	if pl.traceStore == nil {
		return nil
	}
	tr, okT := pl.traceStore.Load(app)
	parts, okP := pl.programStore.Load(app)
	nextAt, okN := pl.nextatStore.Load(app)
	lat, okL := pl.datalatStore.Load(app)
	if !okT || !okP || !okN || !okL {
		return nil
	}
	prog, err := cpu.NewProgramFromParts(tr, parts.ann, parts.desc, parts.blocks)
	if err != nil || len(nextAt) != len(prog.Blocks) || prog.AdoptDataLatencies(lat, pl.memCfg) != nil {
		return nil
	}
	tr.Insts = nil
	pl.loaded.Add(1)
	return newWorkload(prof, prog, nextAt)
}

// newWorkload builds the Workload view over a prepared program and its
// successor array, plus the in-memory next-use oracle (an index over the
// block sequence, always rebuilt — it is not an artifact).
func newWorkload(prof workload.Profile, prog *cpu.Program, nextAt []int64) *Workload {
	return &Workload{
		Profile: prof,
		Prog:    prog,
		Trace:   prog.Trace,
		Ann:     prog.Ann,
		Blocks:  prog.Blocks,
		Oracle:  analysis.NewNextUseOracle(prog.Blocks),
		NextAt:  nextAt,
	}
}

// Workload returns the prepared workload for an app, loading or walking it
// on demand.
func (pl *Pipeline) Workload(app string) (*Workload, error) {
	return pl.workloads.Get(app)
}

// ForgetTransient drops app's workload memo when its outcome is a
// transient error, so the next demand re-prepares instead of replaying
// the failure. Successes and deterministic errors stand. Long-lived
// processes call this when a cell fails transiently: the failure may live
// in preparation rather than the cell compute, and forgetting only the
// cell would replay the poisoned workload forever.
func (pl *Pipeline) ForgetTransient(app string) bool {
	return pl.workloads.ForgetTransient(app)
}

// ForgetAllTransient sweeps transiently failed workload memos, returning
// how many entries were dropped.
func (pl *Pipeline) ForgetAllTransient() int {
	return pl.workloads.ForgetAllTransient()
}

// Require prepares the named workloads in parallel on the pool,
// deduplicated against earlier work — with a store, this is what
// `acic-trace warm` runs to fill it. Must not be called from inside a pool
// task (use Workload, which computes inline).
func (pl *Pipeline) Require(apps ...string) error {
	return pl.workloads.Require(apps...)
}

// StageNames lists the pipeline stages in dependency order.
func StageNames() []string { return []string{"trace", "program", "nextat", "datalat"} }

// StageStats reports one stage's counters: artifacts regenerated vs.
// served from the persistent store.
type StageStats struct {
	Stage     string `json:"stage"`
	Computed  int64  `json:"computed"`
	FromStore int64  `json:"from_store"`
}

// Stats returns per-stage counters in dependency order. A walk produces
// every stage, so it counts one computed per stage; a warm load counts
// one from_store per stage. A warm store shows Computed == 0 on every
// stage; that is what "skipping the prepare phase" means and what the
// regression tests assert.
func (pl *Pipeline) Stats() []StageStats {
	stats := make([]StageStats, 0, 4)
	for _, stage := range StageNames() {
		stats = append(stats, StageStats{stage, pl.walked.Load(), pl.loaded.Load()})
	}
	return stats
}

// Retries returns the extra prepare attempts the workload group spent
// recovering transient failures.
func (pl *Pipeline) Retries() int64 { return pl.workloads.Retries() }

// Quarantined returns how many undecodable artifacts the stage stores
// moved to quarantine/ (0 when no store is configured).
func (pl *Pipeline) Quarantined() int64 {
	if pl.traceStore == nil {
		return 0
	}
	return pl.traceStore.Quarantined() + pl.programStore.Quarantined() +
		pl.nextatStore.Quarantined() + pl.datalatStore.Quarantined()
}

// Regenerated returns the total number of stage artifacts produced by
// walks (0 on a fully warm store).
func (pl *Pipeline) Regenerated() int64 { return int64(len(StageNames())) * pl.walked.Load() }

// WorkloadsPrepared returns how many workloads this pipeline assembled.
func (pl *Pipeline) WorkloadsPrepared() int64 { return pl.workloads.Computed() }
