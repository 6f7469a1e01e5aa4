package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procTimeout bounds every child process, so one hung program cannot hold
// the benchmark past its own time limit.
const procTimeout = 120 * time.Second

// proc is one finished child process.
type proc struct {
	wall   time.Duration
	rssMB  float64       // peak resident set size
	cpu    time.Duration // user + system CPU time
	stdout []byte
	stderr []byte
	err    error
}

// childEnv is the environment without the ACIC_* overrides (trace length,
// workers, stores, fault injection), so only the flags the benchmark
// passes shape the programs' work.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "ACIC_") {
			env = append(env, kv)
		}
	}
	return env
}

// exec runs one of the built binaries to completion.
func (r *run) exec(name string, args ...string) proc {
	ctx, cancel := context.WithTimeout(r.ctx, procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(r.bin, name), args...)
	cmd.Env = childEnv()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	p := proc{wall: time.Since(start), stdout: out.Bytes(), stderr: errb.Bytes(), err: err}
	if err != nil {
		p.err = fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, lastLines(errb.Bytes(), 5))
	}
	if cmd.ProcessState != nil {
		p.rssMB = maxRSSMB(cmd.ProcessState)
		p.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	}
	return p
}

func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

func (r *run) nArg() string { return strconv.Itoa(r.n) }

// benchArgs are the acic-bench flags every batch invocation shares.
func (r *run) benchArgs(exp, res, art string) []string {
	return []string{"-exp", exp, "-n", r.nArg(), "-workers", strconv.Itoa(workers),
		"-cache-dir", res, "-artifact-dir", art, "-progress"}
}

var (
	timingRe   = regexp.MustCompile(`(?m)^(=== [^\n]*) \([0-9.]+s\)$`)
	computedRe = regexp.MustCompile(`(?m)^computed (\d+) cells, (\d+) from cache, (\d+) workloads prepared$`)
)

// normalize strips the per-experiment wall-clock from acic-bench output,
// the only part of it that may differ between equal runs.
func normalize(out []byte) string { return timingRe.ReplaceAllString(string(out), "$1") }

// cellCounts parses acic-bench's -progress summary line.
func cellCounts(stderr []byte) (computed, fromCache int, ok bool) {
	m := computedRe.FindSubmatch(stderr)
	if m == nil {
		return 0, 0, false
	}
	computed, _ = strconv.Atoi(string(m[1]))
	fromCache, _ = strconv.Atoi(string(m[2]))
	return computed, fromCache, true
}

// figureBody extracts one experiment's body from acic-bench output: the
// lines after its "=== slug:" header up to the blank line that ends it,
// the same bytes /v1/figures/{slug} serves.
func figureBody(out []byte, slug string) (string, bool) {
	s := string(out)
	i := strings.Index(s, "=== "+slug+": ")
	if i < 0 {
		return "", false
	}
	s = s[i:]
	s = s[strings.IndexByte(s, '\n')+1:]
	if j := strings.Index(s, "\n=== "); j >= 0 {
		s = s[:j+1]
	}
	return strings.TrimSuffix(s, "\n"), true
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailOK reports whether a quantile q over n samples has at least ten
// samples beyond it.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
