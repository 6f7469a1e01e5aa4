// Command perfbench is the repository benchmark. It drives the real
// acic-bench and acic-serve binaries, each run in a fresh process, on one
// named workload, checks their outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
// the end-to-end metrics of BENCHMARK.json, or with -trace 1 its
// per-layer metrics, measured by a separate run that times calls into
// each layer's Go functions. README.md defines every metric and the
// per-layer → end-to-end map.
//
// It is run through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workers is the pool width passed to every acic-bench and acic-serve
// process, and connections the client concurrency of the serve sessions.
// Both are fixed rather than taken from the host, so runs on hosts with
// different CPU counts do the same work; the stamp records the host's
// nproc beside them.
const (
	workers     = 2
	connections = 2
)

// spec is the part of BENCHMARK.json perfbench needs: the metric names
// and units it must print.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run holds one benchmark invocation's settings and what it has measured.
type run struct {
	// ctx is cancelled by SIGINT or SIGTERM; every child process and
	// request is tied to it, so an interrupted run stops what it started.
	ctx       context.Context
	bin, work string
	workload  string
	seed      uint64
	seconds   time.Duration
	n         int
	traced    bool
	spans     *recorder // nil in untraced runs

	metrics   map[string]metric
	mu        sync.Mutex // guards the counters below; checks run on several goroutines
	attempted int64
	failed    int64
	failures  []string
}

var workloads = map[string]func(*run) error{
	"grid-cold":      gridCold,
	"exp-all-cached": expAllCached,
	"serve-mixed":    serveMixed,
}

var tracedWorkloads = map[string]func(*run) error{
	"grid-cold":      tracedGridCold,
	"exp-all-cached": tracedExpAllCached,
	"serve-mixed":    tracedServeMixed,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name from BENCHMARK.json")
		seed    = flag.Uint64("seed", 1, "seed for the workload's inputs")
		seconds = flag.Int("seconds", 25, "how long the measured phase runs, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		n       = flag.Int("n", 400_000, "trace length in instructions passed to every program")
		bin     = flag.String("bin", "", "directory holding the acic-bench, acic-serve and acic-trace binaries")
		work    = flag.String("work", "", "scratch directory for stores and span files (removed per run)")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *n, *bin, *work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds, trace, n int, bin, work string) error {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	known := false
	for _, w := range sp.Workloads {
		known = known || w.Name == name
	}
	if _, ok := workloads[name]; !ok || !known {
		return fmt.Errorf("unknown -workload %q", name)
	}
	if bin == "" || work == "" {
		return fmt.Errorf("-bin and -work are required (run through perfbench/run.sh)")
	}
	if seconds < 1 || n < 10_000 || (trace != 0 && trace != 1) {
		return fmt.Errorf("bad -seconds %d, -n %d or -trace %d", seconds, n, trace)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &run{
		ctx: ctx, bin: bin, workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second,
		n: n, traced: trace == 1, metrics: map[string]metric{},
	}
	r.work, err = os.MkdirTemp(mkdirAll(work), name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(r.work)

	stamp := stampFor(r)
	fmt.Printf("# stamp %s\n", mustJSON(stamp))
	steal0 := cpuSteal()
	fn, want := workloads[name], sp.EndToEnd
	if r.traced {
		r.spans = newRecorder()
		fn, want = tracedWorkloads[name], sp.PerLayer
	}
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%s: interrupted", name)
	}
	if r.traced {
		path, err := r.spans.writeFile(filepath.Join(mkdirAll(filepath.Join(work, "..", "traces")),
			fmt.Sprintf("%s-seed%d.json", name, seed)), stamp)
		if err != nil {
			return err
		}
		fmt.Printf("# spans written to %s\n", path)
		r.spans.printSelfTimes(os.Stdout)
		if err := zeroUnmeasured(r, sp.PerLayer); err != nil {
			return err
		}
	}

	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		out.Metrics[m.Name] = got
	}
	if steal, total := cpuSteal().minus(steal0); total > 0 {
		fmt.Printf("# cpu time stolen by the hypervisor during the run: %.1f%%\n", 100*steal/total)
	}
	if !r.traced {
		var extra []string
		for name := range r.metrics {
			if _, ok := out.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			fmt.Printf("# reported but not gated by BENCHMARK.json: %s\n", strings.Join(extra, ", "))
		}
	}
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	fmt.Println(mustJSON(out))
	if !out.Correct {
		return fmt.Errorf("%d of %d operations failed their checks", r.failed, r.attempted)
	}
	return nil
}

// zeroUnmeasured reports 0 for each per-layer metric of a layer the
// workload does not exercise, and rejects metrics BENCHMARK.json does not
// declare.
func zeroUnmeasured(r *run, declared []specMetric) error {
	known := map[string]bool{}
	for _, m := range declared {
		known[m.Name] = true
	}
	for name := range r.metrics {
		if !known[name] {
			return fmt.Errorf("measured metric %s is not declared in BENCHMARK.json", name)
		}
	}
	for _, m := range declared {
		if _, ok := r.metrics[m.Name]; !ok {
			r.metrics[m.Name] = metric{Value: 0, Unit: m.Unit}
			fmt.Printf("%-36s %14s %s (no work on this workload)\n", m.Name, "0", m.Unit)
		}
	}
	return nil
}

func readSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// set records a metric and prints it on its own line.
func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-36s %14.6g %s\n", name, v, unit)
}

// info prints a value that is reported beside the metrics but not gated.
func (r *run) info(name string, v any) {
	fmt.Printf("  %-34s %v\n", name, v)
}

// maxFailures caps the failure messages a run keeps; every failure is
// counted.
const maxFailures = 20

// check counts one checked operation; a false ok counts it as failed.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// stamp identifies the host and settings of a run, so results from
// different hosts or settings are never compared.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	TraceLen   int    `json:"trace_len"`
	Workers    int    `json:"workers"`
	Conns      int    `json:"connections"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func stampFor(r *run) stamp {
	return stamp{
		Workload: r.workload, Seed: r.seed, Seconds: int(r.seconds / time.Second), Traced: r.traced,
		TraceLen: r.n, Workers: workers, Conns: connections,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Source: sourceDigest(),
	}
}

// commit is the checkout's git commit, or "none" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's sources (go.mod, cmd/, internal/), so
// checkouts without git history still carry an identity.
func sourceDigest() string {
	var paths []string
	for _, root := range []string{"cmd", "internal"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, paths...) {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ticks are the host-wide steal and total CPU ticks from /proc/stat (zero
// where it cannot be read). Stolen time is the usual cause of a slow run
// on a shared virtual machine, so the run reports its share.
type ticks struct{ steal, total float64 }

func cpuSteal() ticks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	var t ticks
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func (t ticks) minus(u ticks) (steal, total float64) { return t.steal - u.steal, t.total - u.total }

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are marshalled
	}
	return string(data)
}

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}
