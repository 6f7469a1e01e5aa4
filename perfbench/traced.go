package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"acic/internal/analysis"
	"acic/internal/branch"
	"acic/internal/core"
	"acic/internal/cpu"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/icache"
	"acic/internal/mem"
	"acic/internal/policy"
	"acic/internal/trace"
	"acic/internal/workload"
)

// The traced runs measure the per-layer metrics. Each one first runs its
// workload's unit of work untraced, through the real binary, then repeats
// it in this process with a span around every call into a layer, and
// checks that both produced the same results. The difference of the two
// wall-clocks is the tracing overhead. Per-layer metrics of layers a
// workload does not exercise are reported as 0.

// timedSub wraps an i-cache subsystem to time and count the simulator's
// calls into it. It is driven by one simulation at a time.
type timedSub struct {
	icache.Subsystem
	fetchNS, fillNS      time.Duration
	fetches, fills, hits int64
}

func (t *timedSub) Fetch(block uint64, accessIdx, cycle int64) bool {
	start := time.Now()
	hit := t.Subsystem.Fetch(block, accessIdx, cycle)
	t.fetchNS += time.Since(start)
	t.fetches++
	if hit {
		t.hits++
	}
	return hit
}

func (t *timedSub) PrefetchFill(block uint64, accessIdx, cycle int64) {
	start := time.Now()
	t.Subsystem.PrefetchFill(block, accessIdx, cycle)
	t.fillNS += time.Since(start)
	t.fills++
}

// totals accumulates time and counts per key across goroutines.
type totals struct {
	mu  sync.Mutex
	dur map[string]time.Duration
	cnt map[string]int64
}

func newTotals() *totals {
	return &totals{dur: map[string]time.Duration{}, cnt: map[string]int64{}}
}

func (t *totals) add(key string, d time.Duration, count int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dur[key] += d
	t.cnt[key] += count
}

// per returns key's time per counted unit, in ns (0 with no units).
func (t *totals) per(key string) float64 {
	if t.cnt[key] == 0 {
		return 0
	}
	return float64(t.dur[key]) / float64(t.cnt[key])
}

func (t *totals) ratio(num, den string) float64 {
	if t.cnt[den] == 0 {
		return 0
	}
	return float64(t.cnt[num]) / float64(t.cnt[den])
}

// overhead reports the traced and untraced wall-clocks of the same work.
func (r *run) overhead(traced, untraced time.Duration) {
	r.set("tracing.traced_wall_s", traced.Seconds(), "s")
	r.set("tracing.untraced_wall_s", untraced.Seconds(), "s")
	r.set("tracing.overhead_s", (traced - untraced).Seconds(), "s")
}

// tracedGridCold replays the cold paper grid layer by layer: every
// prepare stage of every app, each artifact and result put, and every
// cell through a timed i-cache, two apps at a time like acic-bench's two
// workers. Each cell's result must equal acic-bench's. A cold in-process
// Suite run of the same grid then times the experiments layer.
func tracedGridCold(r *run) error {
	refRes, refArt := r.stores("untraced")
	ref, err := r.bench(paperExps, refRes, refArt)
	if err != nil {
		return err
	}
	refGet, err := r.storeLookup(refRes)
	if err != nil {
		return err
	}
	res, art := r.stores("traced")
	suite := experiments.NewSuite(r.n)
	results, err := engine.NewDiskCache[experiments.Cell, cpu.Result](res, suite.CellKey)
	if err != nil {
		return err
	}
	artifacts, err := rawStore(art)
	if err != nil {
		return err
	}

	cells := map[string][]experiments.Cell{}
	for _, c := range paperGrid() {
		cells[c.App] = append(cells[c.App], c)
	}
	t := newTotals()
	apps := make(chan workload.Profile)
	errs := make(chan error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for p := range apps {
				if first == nil {
					first = r.replayApp(p, cells[p.Name], t, artifacts, results, refGet)
				}
			}
			errs <- first
		}()
	}
	for _, p := range workload.All() {
		apps <- p
	}
	close(apps)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	r.overhead(time.Since(start), ref.wall)
	// The replay encodes artifacts with its own copy of the pipeline's
	// encoders; they must write the very bytes acic-bench wrote.
	replayed, err := contentDigests(art)
	if err != nil {
		return err
	}
	written, err := contentDigests(refArt)
	if err != nil {
		return err
	}
	r.check(equalCounts(replayed, written), "the replay's %d encoded artifacts differ from the %d acic-bench wrote",
		len(replayed), len(written))

	insts := "insts"
	perInst := func(key string) float64 { return float64(t.dur[key]) / float64(t.cnt[insts]) }
	for _, k := range []string{"workload.generate", "branch.annotate", "cpu.program", "analysis.nextuse", "mem.datalat", "trace.encode"} {
		r.set(k+"_ns_per_inst", perInst(k), "ns/inst")
	}
	r.set("trace.bytes_per_inst", float64(t.cnt["trace.bytes"])/float64(t.cnt[insts]), "B/inst")
	r.set("branch.mispredict_rate", t.ratio("branch.mispredicts", "branch.lookups"), "ratio")
	for _, s := range []string{"lru", "acic", "opt"} {
		r.set("cpu.run_ns_per_inst."+s, t.per("cpu.run."+s), "ns/inst")
		r.set("icache.fetch_ns."+s, t.per("icache.fetch."+s), "ns")
	}
	r.set("cpu.self_ns_per_inst", float64(t.dur["cpu.run"]-t.dur["icache"])/float64(t.cnt["cpu.run"]), "ns/inst")
	r.set("icache.fetch_calls", float64(t.cnt["icache.fetches"]), "count")
	r.set("icache.prefetch_fills", float64(t.cnt["icache.fills"]), "count")
	r.set("icache.hit_ratio", t.ratio("icache.hits", "icache.fetches"), "ratio")
	r.set("core.acic_extra_ns_per_fetch", t.per("icache.fetch.acic")-t.per("icache.fetch.lru"), "ns")
	r.set("core.admit_fraction", t.ratio("core.admitted", "core.decisions"), "ratio")
	r.set("engine.artifact_put_ms", t.per("engine.artifact_put")/1e6, "ms")
	r.set("engine.artifact_put_bytes", float64(t.cnt["engine.artifact_put_bytes"])/float64(t.cnt["engine.artifact_put"]), "B")
	r.set("engine.result_put_ms", t.per("engine.result_put")/1e6, "ms")
	r.set("engine.result_put_bytes", meanFileSize(filepath.Join(res, "*.json")), "B")

	// The experiments layer, cold, on scratch stores of its own.
	res, art = r.stores("suite")
	s := experiments.NewSuite(r.n)
	s.Workers, s.CacheDir, s.ArtifactDir = workers, res, art
	if err := s.CacheError(); err != nil {
		return err
	}
	names := make([]string, 0, 15)
	for _, p := range workload.All() {
		names = append(names, p.Name)
	}
	sampler := startOccupancy(s)
	var prepErr, reqErr error
	r.set("experiments.prepare_s", r.spans.timed("suite", "experiments.prepare", 0, func() { prepErr = s.PrepareAll(names...) }).Seconds(), "s")
	r.set("experiments.require_s", r.spans.timed("suite", "experiments.require", 0, func() { reqErr = s.Require(paperGrid()...) }).Seconds(), "s")
	r.set("engine.pool_busy_frac", sampler.stop(), "ratio")
	if prepErr != nil || reqErr != nil {
		return fmt.Errorf("suite run: %v %v", prepErr, reqErr)
	}
	var render time.Duration
	for _, slug := range strings.Split(paperExps, ",") {
		e, _ := experiments.LookupExperiment(slug)
		var out string
		render += r.spans.timed("suite", "experiments.render", 0, func() { out, err = e.Run(s) })
		want, _ := figureBody([]byte(ref.out), slug)
		r.check(err == nil && out == want, "in-process %s differs from acic-bench's (%v)", slug, err)
	}
	r.set("experiments.render_s", render.Seconds(), "s")
	r.suiteCounts(s)
	return nil
}

// replayApp prepares one app stage by stage and runs its grid cells.
func (r *run) replayApp(p workload.Profile, cells []experiments.Cell, t *totals,
	artifacts *engine.DiskCache[string, []byte], results *engine.DiskCache[experiments.Cell, cpu.Result], ref lookupFn) error {
	rc, app, n := r.spans, p.Name, int64(r.n)
	root, endRoot := rc.begin(app, "experiments.prepare", 0)
	var tr *trace.Trace
	t.add("workload.generate", rc.timed(app, "workload.generate", root, func() { tr = workload.Generate(p, r.n) }), 0)
	t.add("insts", 0, int64(tr.Len()))
	fe := branch.NewFrontEnd()
	var ann []branch.Annotation
	t.add("branch.annotate", rc.timed(app, "branch.annotate", root, func() { ann = fe.Annotate(tr) }), 0)
	t.add("branch.lookups", 0, int64(fe.TAGE.Lookups))
	t.add("branch.mispredicts", 0, int64(fe.TAGE.Mispredicts))
	var prog *cpu.Program
	t.add("cpu.program", rc.timed(app, "cpu.program", root, func() { prog = cpu.NewProgram(tr, ann) }), 0)
	var nextAt []int64
	var oracle *analysis.NextUseOracle
	t.add("analysis.nextuse", rc.timed(app, "analysis.nextuse", root, func() {
		nextAt = analysis.NextUseArray(prog.Blocks)
		oracle = analysis.NewNextUseOracle(prog.Blocks)
	}), 0)
	t.add("mem.datalat", rc.timed(app, "mem.datalat", root, func() { prog.EnsureDataLatencies(mem.DefaultConfig()) }), 0)
	var arts []artifact
	var encErr error
	t.add("trace.encode", rc.timed(app, "trace.encode", root, func() { arts, encErr = encodeArtifacts(tr, prog, nextAt) }), 0)
	if encErr != nil {
		return encErr
	}
	for _, a := range arts {
		if a.stage == "trace" {
			t.add("trace.bytes", 0, int64(len(a.data)))
		}
		t.add("engine.artifact_put", rc.timed(app, "engine.artifact_put", root, func() { artifacts.Store(app+"|"+a.stage, a.data) }), 1)
		t.add("engine.artifact_put_bytes", 0, int64(len(a.data)))
	}
	endRoot()

	w := &experiments.Workload{Profile: p, Prog: prog, Trace: tr, Ann: prog.Ann, Blocks: prog.Blocks, Oracle: oracle, NextAt: nextAt}
	for _, c := range cells {
		sub, err := experiments.NewScheme(c.Scheme, w)
		if err != nil {
			return err
		}
		ts := &timedSub{Subsystem: sub}
		id, end := rc.begin(app, "cpu.run", 0)
		res, err := experiments.RunSubsystem(w, ts, experiments.Options{WarmupFrac: 0.1, Prefetcher: c.Prefetcher})
		d := end()
		if err != nil {
			return err
		}
		rc.aggregate(app, "icache.fetch", id, ts.fetchNS, ts.fetches)
		rc.aggregate(app, "icache.prefetch_fill", id, ts.fillNS, ts.fills)
		t.add("cpu.run", d, n)
		t.add("cpu.run."+c.Scheme, d, n)
		t.add("icache", ts.fetchNS+ts.fillNS, 0)
		t.add("icache.fetch."+c.Scheme, ts.fetchNS, ts.fetches)
		t.add("icache.fetches", 0, ts.fetches)
		t.add("icache.hits", 0, ts.hits)
		t.add("icache.fills", 0, ts.fills)
		if cx, ok := sub.(*icache.Complex); ok && c.Scheme == "acic" && cx.ACIC() != nil {
			t.add("core.decisions", 0, int64(cx.ACIC().Decisions))
			t.add("core.admitted", 0, int64(cx.ACIC().Admitted))
		}
		t.add("engine.result_put", rc.timed(app, "engine.result_put", 0, func() { results.Store(c, res) }), 1)
		want, err := ref(c.App, c.Scheme, c.Prefetcher)
		r.check(err == nil && want == res, "%s: traced result differs from acic-bench's (%v)", c, err)
	}
	return nil
}

// artifact is one encoded prepare-stage artifact.
type artifact struct {
	stage string
	data  []byte
}

// encodeArtifacts encodes the four prepare-stage artifacts the way the
// artifact pipeline stores them. The pipeline's encoders are internal to
// it, so this is a copy; tracedGridCold checks its bytes against the
// store acic-bench wrote.
func encodeArtifacts(tr *trace.Trace, prog *cpu.Program, nextAt []int64) ([]artifact, error) {
	container := func(name string, secs ...trace.Section) ([]byte, error) {
		var b bytes.Buffer
		err := trace.WriteContainer(&b, name, secs)
		return b.Bytes(), err
	}
	var b bytes.Buffer
	if err := trace.Write(&b, tr); err != nil {
		return nil, err
	}
	out := []artifact{{"trace", b.Bytes()}}
	for _, a := range []struct {
		stage, name string
		secs        []trace.Section
	}{
		{"program", tr.Name, []trace.Section{
			{Tag: trace.SecAnnot, Data: prog.AnnotationBytes()},
			{Tag: trace.SecDesc, Data: prog.Desc},
			{Tag: trace.SecBlocks, Data: trace.EncodeUint64sDelta(prog.Blocks)},
		}},
		{"nextat", "nextat", []trace.Section{{Tag: trace.SecNextAt, Data: trace.EncodeInt64sDelta(nextAt)}}},
		{"datalat", "datalat", []trace.Section{{Tag: trace.SecDataLat, Data: trace.EncodeInt16s(prog.DataLat)}}},
	} {
		data, err := container(a.name, a.secs...)
		if err != nil {
			return nil, err
		}
		out = append(out, artifact{a.stage, data})
	}
	return out, nil
}

// rawStore opens an artifact store with the identity codec, keyed by
// strings as given.
func rawStore(dir string) (*engine.DiskCache[string, []byte], error) {
	return engine.NewCodecDiskCache(dir, ".actr", func(k string) string { return k },
		func(b []byte) ([]byte, error) { return b, nil },
		func(_ string, b []byte) ([]byte, error) { return b, nil })
}

// contentDigests counts the SHA-256 digests of the artifact files in dir.
func contentDigests(dir string) (map[[sha256.Size]byte]int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.actr"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no artifacts in %s (%v)", dir, err)
	}
	out := map[[sha256.Size]byte]int{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out[sha256.Sum256(data)]++
	}
	return out, nil
}

func equalCounts[K comparable](a, b map[K]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// meanFileSize is the mean size of the files matching pattern.
func meanFileSize(pattern string) float64 {
	files, _ := filepath.Glob(pattern)
	var total int64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	if len(files) == 0 {
		return 0
	}
	return float64(total) / float64(len(files))
}

// occupancy samples a Suite's pool occupancy every 2 ms.
type occupancy struct {
	quit chan struct{}
	frac chan float64
}

func startOccupancy(s *experiments.Suite) *occupancy {
	o := &occupancy{quit: make(chan struct{}), frac: make(chan float64, 1)}
	go func() {
		var busy, slots int
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-o.quit:
				if slots == 0 {
					o.frac <- 0
				} else {
					o.frac <- float64(busy) / float64(slots)
				}
				return
			case <-tick.C:
				running, idle, _ := s.Occupancy()
				busy += running
				slots += running + idle
			}
		}
	}()
	return o
}

// stop ends sampling and returns the share of pool slots that were busy.
func (o *occupancy) stop() float64 {
	close(o.quit)
	return <-o.frac
}

// suiteCounts reports the experiments layer's counters.
func (r *run) suiteCounts(s *experiments.Suite) {
	computed, fromCache, _ := s.Stats()
	r.set("experiments.cells_computed", float64(computed), "count")
	r.set("experiments.cells_from_cache", float64(fromCache), "count")
	r.set("experiments.gang_cells", float64(s.GangStats().Cells), "count")
	for _, st := range s.PrepareStats() {
		r.set("experiments.stage."+st.Stage+".computed", float64(st.Computed), "count")
		r.set("experiments.stage."+st.Stage+".from_store", float64(st.FromStore), "count")
	}
}

// sidePaths are the experiments that simulate outside the cell grid.
var sidePaths = map[string]bool{"fig3b": true, "fig6": true, "fig12a": true, "fig13": true, "fig15": true, "ext-evict-train": true}

// tracedExpAllCached fills the stores, times one cached -exp all through
// acic-bench, then renders every experiment in process over the same
// stores with a span per experiment; the output must be byte-identical.
// It then times the store reads, trace decode, reuse analysis, and the
// Fig 15 10-bit-history predictor against the default one.
func tracedExpAllCached(r *run) error {
	res, art := r.stores("all")
	fill, err := r.bench("all", res, art)
	if err != nil {
		return err
	}
	ref, err := r.bench("all", res, art)
	if err != nil {
		return err
	}
	r.check(ref.computed == 0 && ref.out == fill.out, "cached -exp all computed %d cells or changed its output", ref.computed)

	s := experiments.NewSuite(r.n)
	s.Workers, s.CacheDir, s.ArtifactDir = workers, res, art
	if err := s.CacheError(); err != nil {
		return err
	}
	start := time.Now()
	sampler := startOccupancy(s)
	var prepErr error
	r.set("experiments.prepare_s", r.spans.timed("suite", "experiments.prepare", 0, func() { prepErr = s.PrepareAll(s.AppNames()...) }).Seconds(), "s")
	if prepErr != nil {
		return prepErr
	}
	var out strings.Builder
	var side, render time.Duration
	for _, e := range experiments.Registry() {
		name := "experiments.render"
		if sidePaths[e.Slug] {
			name = "experiments.side_path"
		}
		var body string
		var runErr error
		d := r.spans.timed("suite", name, 0, func() { body, runErr = e.Run(s) })
		if runErr != nil {
			return fmt.Errorf("%s: %w", e.Slug, runErr)
		}
		if sidePaths[e.Slug] {
			side += d
		} else {
			render += d
		}
		fmt.Fprintf(&out, "=== %s: %s\n%s\n", e.Slug, e.Desc, body)
	}
	r.set("engine.pool_busy_frac", sampler.stop(), "ratio")
	r.overhead(time.Since(start), ref.wall)
	r.check(out.String() == ref.out, "in-process -exp all differs from acic-bench's output")
	r.set("experiments.side_path_s", side.Seconds(), "s")
	r.set("experiments.render_s", render.Seconds(), "s")
	r.suiteCounts(s)
	r.check(r.metrics["experiments.cells_computed"].Value == 0, "the in-process cached run computed cells")

	if err := r.storeReads(res, art); err != nil {
		return err
	}
	return r.historyVariant(s, res)
}

// storeReads times result and artifact gets, and the trace decode.
func (r *run) storeReads(res, art string) error {
	get, err := r.storeLookup(res)
	if err != nil {
		return err
	}
	t := newTotals()
	for _, c := range paperGrid() {
		var gerr error
		t.add("result_get", r.spans.timed("store", "engine.result_get", 0, func() { _, gerr = get(c.App, c.Scheme, c.Prefetcher) }), 1)
		r.check(gerr == nil, "%s: %v", c, gerr)
	}
	files, err := filepath.Glob(filepath.Join(art, "*.actr"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no artifacts in %s (%v)", art, err)
	}
	// Artifact gets go through an engine.DiskCache with the identity codec.
	// Store entries are named by a hash of their key, and the pipeline's
	// stage keys are internal to it, so the gets read a copy of the store
	// keyed by file name: each file is stored into it untimed, then loaded
	// back timed. The container is parsed and the trace decoded after.
	mirror, err := rawStore(filepath.Join(r.work, "artifact-gets"))
	if err != nil {
		return err
	}
	for _, f := range files {
		data, rerr := os.ReadFile(f)
		if rerr != nil {
			return rerr
		}
		name := filepath.Base(f)
		mirror.Store(name, data)
		var got []byte
		var ok bool
		t.add("artifact_get", r.spans.timed("store", "engine.artifact_get", 0, func() { got, ok = mirror.Load(name) }), 1)
		r.check(ok && bytes.Equal(got, data), "%s: artifact get returned other bytes than were stored", name)
		_, secs, rerr := trace.ReadContainer(bytes.NewReader(got))
		if rerr != nil {
			return fmt.Errorf("%s: %w", f, rerr)
		}
		if _, ok := trace.FindSection(secs, trace.SecInstsZ); !ok {
			continue
		}
		var tr *trace.Trace
		t.add("decode", r.spans.timed("store", "trace.decode", 0, func() { tr, rerr = trace.Read(bytes.NewReader(got)) }), 0)
		if rerr != nil {
			return fmt.Errorf("%s: %w", f, rerr)
		}
		t.add("insts", 0, int64(tr.Len()))
		t.add("bytes", 0, int64(len(data)))
	}
	r.set("engine.result_get_ms", t.per("result_get")/1e6, "ms")
	r.set("engine.artifact_get_ms", t.per("artifact_get")/1e6, "ms")
	r.set("trace.decode_ns_per_inst", float64(t.dur["decode"])/float64(t.cnt["insts"]), "ns/inst")
	r.set("trace.bytes_per_inst", float64(t.cnt["bytes"])/float64(t.cnt["insts"]), "B/inst")
	return nil
}

// historyVariant times the reuse analysis Fig 1a runs and the Fig 15
// 10-bit-history predictor against the default ACIC on every datacenter
// app; the default run must equal the stored acic cell.
func (r *run) historyVariant(s *experiments.Suite, res string) error {
	get, err := r.storeLookup(res)
	if err != nil {
		return err
	}
	var reuse time.Duration
	var def, h10 timedSub
	for _, app := range s.AppNames() {
		w, err := s.Workload(app)
		if err != nil {
			return err
		}
		reuse += r.spans.timed(app, "analysis.reuse", 0, func() { analysis.ReuseDistances(w.Blocks) })
		for _, bits := range []int{0, 10} {
			cc := core.DefaultConfig()
			if bits != 0 {
				cc.Predictor.HistoryBits = bits
			}
			sub, err := icache.New(icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Policy: policy.NewLRU(), ACIC: &cc})
			if err != nil {
				return err
			}
			ts := &timedSub{Subsystem: sub}
			id, end := r.spans.begin(app, "cpu.run", 0)
			got, err := experiments.RunSubsystem(w, ts, experiments.DefaultOptions())
			end()
			if err != nil {
				return err
			}
			r.spans.aggregate(app, "icache.fetch", id, ts.fetchNS, ts.fetches)
			r.spans.aggregate(app, "icache.prefetch_fill", id, ts.fillNS, ts.fills)
			acc := &def
			if bits != 0 {
				acc = &h10
			} else {
				want, err := get(app, "acic", "fdp")
				r.check(err == nil && want == got, "%s: default ACIC run differs from the stored acic cell (%v)", app, err)
			}
			acc.fetchNS += ts.fetchNS
			acc.fetches += ts.fetches
		}
	}
	perFetch := func(t timedSub) float64 { return float64(t.fetchNS) / float64(t.fetches) }
	r.set("analysis.reuse_s", reuse.Seconds(), "s")
	r.set("core.h10_extra_ns_per_fetch", perFetch(h10)-perFetch(def), "ns")
	return nil
}

// tracedServeMixed runs the same session (seed and repetition) three
// times against fresh daemons over one warm artifact store: untraced,
// with a span per request, and untraced again, so the overhead compares
// the traced session with the mean of the two around it. All three must
// answer every cell identically.
func tracedServeMixed(r *run) error {
	art := filepath.Join(r.work, "artifacts")
	if err := r.warmArtifacts(art).err; err != nil {
		return err
	}
	var sessions [3]*session
	rc := r.spans
	for i := range sessions {
		r.spans = nil
		if i == 1 {
			r.spans = rc
		}
		s, err := r.runSession(0, art, filepath.Join(r.work, fmt.Sprintf("results-%d", i)), nil)
		if err != nil {
			return err
		}
		sessions[i] = s
	}
	r.spans = rc
	traced := sessions[1]
	for _, s := range []*session{sessions[0], sessions[2]} {
		same := len(traced.cells) == len(s.cells)
		for c, raw := range traced.cells {
			same = same && bytes.Equal(raw, s.cells[c])
		}
		r.check(same, "traced and untraced sessions answered cells differently")
	}
	r.overhead(traced.wall, (sessions[0].wall+sessions[2].wall)/2)

	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	r.set("serve.client_ms.cells", mean(traced.byKind["cells"]), "ms")
	r.set("serve.client_ms.figures", mean(traced.byKind["figures"]), "ms")
	r.set("serve.client_ms.not_modified", mean(traced.byKind["not_modified"]), "ms")
	r.set("serve.not_modified_ratio", float64(len(traced.notModified))/float64(traced.requests), "ratio")
	r.set("serve.computed_per_cold_req", float64(traced.computed)/float64(len(traced.cold)), "count")
	return nil
}
