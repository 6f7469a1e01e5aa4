package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"acic/internal/cpu"
	"acic/internal/experiments"
)

// paperExps is the paper grid: the Fig 10 datacenter schemes, the Fig 18
// SPEC apps, and the Fig 20 entangling platform, 205 cells.
const paperExps = "fig10,fig18,fig20"

// minReps is the fewest repetitions a batch workload measures, whatever
// -seconds says, so its medians are medians of at least three.
const minReps = 3

// batchRep is one measured acic-bench invocation.
type batchRep struct {
	wall     time.Duration
	rssMB    float64
	cpu      time.Duration
	computed int
	cached   int
	out      string // stdout, timings stripped
}

// bench runs acic-bench over the given stores and checks that it exited
// cleanly with no cell errors.
func (r *run) bench(exp, res, art string) (batchRep, error) {
	p := r.exec("acic-bench", r.benchArgs(exp, res, art)...)
	if p.err != nil {
		return batchRep{}, p.err
	}
	computed, cached, ok := cellCounts(p.stderr)
	if !ok {
		return batchRep{}, fmt.Errorf("acic-bench -exp %s: no cell summary on stderr", exp)
	}
	r.check(!bytes.Contains(p.stderr, []byte("(error)")), "acic-bench -exp %s reported cell errors", exp)
	return batchRep{wall: p.wall, rssMB: p.rssMB, cpu: p.cpu, computed: computed, cached: cached, out: normalize(p.stdout)}, nil
}

// batchMetrics reports wall_s, cpu_s, peak_rss_mb and sim_minst_per_s as
// medians over the repetitions. sim_minst_per_s counts every grid cell the run
// answered, simulated or read from the result store, at the run's trace
// length.
func (r *run) batchMetrics(reps []batchRep) {
	var wall, cpuS, rss, rate []float64
	for _, b := range reps {
		wall = append(wall, b.wall.Seconds())
		cpuS = append(cpuS, b.cpu.Seconds())
		rss = append(rss, b.rssMB)
		rate = append(rate, float64(b.computed+b.cached)*float64(r.n)/b.wall.Seconds()/1e6)
	}
	r.set("wall_s", median(wall), "s")
	r.set("cpu_s", median(cpuS), "s")
	r.set("peak_rss_mb", median(rss), "MB")
	r.set("sim_minst_per_s", median(rate), "Minst/s")
	r.info("repetitions (wall s)", wall)
}

// stores returns a fresh result and artifact store pair under the run's
// scratch directory.
func (r *run) stores(tag string) (res, art string) {
	dir := filepath.Join(r.work, tag)
	return filepath.Join(dir, "results"), filepath.Join(dir, "artifacts")
}

// setup reports the set-up's CPU time as setup_s, and its wall-clock
// beside it. CPU time rather than wall-clock, because on a shared virtual
// machine the wall-clock of the same set-up moves by a third with the CPU
// time the hypervisor steals, while its CPU time moves a few percent; work
// moved into set-up shows in either.
func (r *run) setup(cpu, wall time.Duration) {
	r.set("setup_s", cpu.Seconds(), "s")
	r.info("set-up wall-clock (s)", wall.Seconds())
}

// startups is how many times grid-cold's set-up starts acic-bench.
const startups = 31

// gridCold runs the paper grid from empty stores, repeatedly for the
// measured time. Every repetition is a fresh process on fresh stores, so
// the workload sets up nothing but the program itself: its set-up starts
// acic-bench startups times with -list, each of which must list the
// grid's experiments, and setup_s is the median start-up.
func gridCold(r *run) error {
	var cpuS, wall []float64
	for range startups {
		p := r.exec("acic-bench", "-list")
		if p.err != nil {
			return p.err
		}
		for _, slug := range strings.Split(paperExps, ",") {
			r.check(bytes.Contains(p.stdout, []byte("\n"+slug+" ")), "acic-bench -list does not list %s", slug)
		}
		cpuS = append(cpuS, p.cpu.Seconds())
		wall = append(wall, p.wall.Seconds())
	}
	r.setup(seconds(median(cpuS)), seconds(median(wall)))

	var reps []batchRep
	var res, art string
	start := time.Now()
	for i := 0; len(reps) < minReps || time.Since(start) < r.seconds; i++ {
		if res != "" {
			os.RemoveAll(filepath.Dir(res))
		}
		res, art = r.stores("grid-" + strconv.Itoa(i))
		b, err := r.bench(paperExps, res, art)
		if err != nil {
			return err
		}
		r.check(b.cached == 0 && b.computed == len(paperGrid()),
			"cold grid computed %d cells and read %d from cache; want %d computed", b.computed, b.cached, len(paperGrid()))
		if len(reps) > 0 {
			r.check(b.out == reps[0].out, "cold grid output differs between repetitions")
		}
		reps = append(reps, b)
	}
	r.batchMetrics(reps)

	// Re-render from the stores the last repetition wrote: nothing may be
	// computed, and the figures must be byte-identical.
	again, err := r.bench(paperExps, res, art)
	if err != nil {
		return err
	}
	r.check(again.computed == 0, "re-render from the stores computed %d cells", again.computed)
	r.check(again.out == reps[0].out, "re-render from the stores differs from the cold output")
	return r.storeFidelity(res)
}

// storeFidelity scores fidelity from a batch workload's result store.
func (r *run) storeFidelity(res string) error {
	get, err := r.storeLookup(res)
	if err != nil {
		return err
	}
	return r.fidelity(get)
}

// expAllCached fills the stores with a cold -exp all (the set-up), then
// repeats -exp all over them for the measured time.
func expAllCached(r *run) error {
	res, art := r.stores("all")
	fill, err := r.bench("all", res, art)
	if err != nil {
		return err
	}
	r.setup(fill.cpu, fill.wall)
	r.check(fill.computed > 0, "the cold -exp all fill computed no cells")

	var reps []batchRep
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < r.seconds {
		b, err := r.bench("all", res, art)
		if err != nil {
			return err
		}
		r.check(b.computed == 0 && b.cached == fill.computed,
			"cached -exp all computed %d cells and read %d from cache; want 0 and %d", b.computed, b.cached, fill.computed)
		r.check(b.out == fill.out, "cached -exp all output differs from its cold fill")
		reps = append(reps, b)
	}
	r.batchMetrics(reps)
	return r.storeFidelity(res)
}

// warmArtifacts fills an artifact store with every app's prepared workload.
func (r *run) warmArtifacts(art string) proc {
	return r.exec("acic-trace", "warm", "-artifact-dir", art, "-n", r.nArg(), "-workers", strconv.Itoa(workers))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// serveMixed fills an artifact store (the set-up, with daemon start), then
// runs sessions, each against a fresh daemon over that store with an
// empty result cache of its own, for the measured time. After the last
// session's measured part its daemon answers the whole Fig 10 grid, which
// scores fidelity from the daemon's own answers.
func serveMixed(r *run) error {
	art := filepath.Join(r.work, "artifacts")
	fill := r.warmArtifacts(art)
	if fill.err != nil {
		return fill.err
	}

	var sessions []*session
	var res string
	start := time.Now()
	for last := false; !last; {
		if res != "" {
			os.RemoveAll(res)
		}
		res = filepath.Join(r.work, fmt.Sprintf("results-%d", len(sessions)))
		s, err := r.runSession(len(sessions), art, res, func(c *client) error {
			last = len(sessions)+1 >= minSessions && time.Since(start) >= r.seconds
			if !last {
				return nil
			}
			cells, err := c.fig10Grid()
			if err != nil {
				return err
			}
			return r.fidelity(func(app, scheme, pf string) (cpu.Result, error) {
				got, ok := cells[experiments.Cell{App: app, Scheme: scheme, Prefetcher: pf}]
				if !ok {
					return got, fmt.Errorf("not answered by /v1/cells")
				}
				return got, nil
			})
		})
		if err != nil {
			return err
		}
		r.check(s.computed == coldCells, "session computed %d cells for %d cold requests", s.computed, coldCells)
		sessions = append(sessions, s)
	}

	var wall, cpuS, rate, rss, startup, startupCPU []float64
	for _, s := range sessions {
		wall = append(wall, s.wall.Seconds())
		cpuS = append(cpuS, s.cpu.Seconds())
		rate = append(rate, float64(s.answered)*float64(r.n)/s.wall.Seconds()/1e6)
		rss = append(rss, s.rssMB)
		startup = append(startup, s.startup.Seconds())
		startupCPU = append(startupCPU, s.startupCPU.Seconds())
	}
	r.setup(fill.cpu+seconds(median(startupCPU)), fill.wall+seconds(median(startup)))
	r.set("wall_s", median(wall), "s")
	r.set("cpu_s", median(cpuS), "s")
	r.set("peak_rss_mb", median(rss), "MB")
	r.set("sim_minst_per_s", median(rate), "Minst/s")
	r.serveMetrics(sessions)
	return r.checkFigures(sessions[len(sessions)-1], art, res)
}
