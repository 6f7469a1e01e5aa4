package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"acic/internal/api"
	"acic/internal/cpu"
	"acic/internal/experiments"
	"acic/internal/workload"
)

// Session shape. Each connection sends its share of the coldCells
// first-touch /v1/cells requests, interleaved at seeded positions with
// othersPerConn warm cell and figure requests and revalidations, all in
// one closed loop, so warm requests are answered while cells simulate.
// Two sessions give at least ten cold samples beyond p90 and ten warm
// samples beyond p99.
//
// The repository holds no record of real traffic, so the mix is an
// assumption rather than a measurement: a client that mostly re-reads
// what it has already fetched. Of the requests that are not cold, 40%
// fetch a figure, 40% a cell, 8% revalidate a cell, 8% revalidate a
// figure and 4% send another cell's ETag (a stale revalidation, answered
// 200). A figure is fetched only once all its cells have been asked for
// cold, and revalidated only by a connection that has fetched it, so
// figure requests render from the memo and never simulate.
const (
	coldCells     = 60
	othersPerConn = 450
	minSessions   = 2
)

// figureSlugs are the figures the sessions fetch.
var figureSlugs = []string{"table3", "fig18"}

// figureCells are the cells each fetched figure renders from: the Table
// III baselines and the Fig 18 SPEC grid. They are always among a
// session's cold cells.
func figureCells() map[string][]experiments.Cell {
	var dc, spec []string
	for _, p := range workload.Datacenter() {
		dc = append(dc, p.Name)
	}
	for _, p := range workload.SPEC() {
		spec = append(spec, p.Name)
	}
	return map[string][]experiments.Cell{
		"table3": experiments.CrossCells(dc, []string{experiments.Baseline}, "fdp"),
		"fig18":  experiments.CrossCells(spec, append([]string{experiments.Baseline}, experiments.SPECSchemes...), "fdp"),
	}
}

// daemon is one running acic-serve process.
type daemon struct {
	cmd        *exec.Cmd
	base       string        // http://host:port/v1/
	startup    time.Duration // from exec until /v1/healthz answered
	startupCPU time.Duration // the daemon's CPU time by then
	logs       *lockedBuffer
	done       chan struct{} // closed once stderr is drained
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

var servingRe = regexp.MustCompile(`serving (http://\S+)`)

// startDaemon launches acic-serve over the given stores and waits until
// /v1/healthz answers.
func (r *run) startDaemon(art, res string) (*daemon, error) {
	cmd := exec.CommandContext(r.ctx, filepath.Join(r.bin, "acic-serve"), "-listen", "127.0.0.1:0", "-n", r.nArg(),
		"-workers", strconv.Itoa(workers), "-artifact-dir", art, "-cache-dir", res)
	cmd.Env = childEnv()
	// An interrupted run drains the daemon like stop does.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 15 * time.Second
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logs: &lockedBuffer{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.logs, line)
			if m := servingRe.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case base := <-addr:
		d.base = strings.TrimSuffix(base, "/") + "/"
	case <-d.done:
		d.stop()
		return nil, fmt.Errorf("acic-serve exited before serving: %s", lastLines([]byte(d.logs.String()), 5))
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("acic-serve did not start within 30s")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(d.base + "healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("acic-serve /v1/healthz did not answer within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	d.startup = time.Since(start)
	d.startupCPU = d.cpuTime()
	return d, nil
}

// peakRSSMB reads the daemon's resident-set high-water mark while it runs.
func (d *daemon) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

// cpuTime reads the daemon's user + system CPU time while it runs.
func (d *daemon) cpuTime() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * time.Second / clockTicks
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within 15 s, and waits for it.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan error, 1)
	go func() {
		<-d.done
		waited <- d.cmd.Wait()
	}()
	select {
	case err := <-waited:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-waited
		return fmt.Errorf("acic-serve did not drain within 15s")
	}
}

// session is one measured pass of the request mix against a fresh daemon.
type session struct {
	cold, warm, notModified []float64 // ms per response
	byKind                  map[string][]float64
	requests                int
	wall                    time.Duration
	answered, computed      int // /v1/stats deltas: distinct cells answered, cells simulated
	startup, startupCPU     time.Duration
	rssMB                   float64
	cpu                     time.Duration     // the daemon's CPU time over the measured part
	bodies                  map[string][]byte // request path → first 200 body
	cells                   map[experiments.Cell]json.RawMessage
}

// request is one planned HTTP request.
type request struct {
	kind string // cold, warm, reval, stale
	path string // under /v1/
	conn int    // the connection that sends it
	// etagOf names the path whose ETag is sent as If-None-Match: the same
	// path for a revalidation (answer 304), another path for a stale
	// revalidation (answer 200).
	etagOf string
	// after lists the cold cell paths whose answers must be in before the
	// request is sent. They may be another connection's: the client waits
	// for them, and the wait is not part of the request's latency.
	after []string
}

func cellPath(c experiments.Cell) string {
	return fmt.Sprintf("cells?app=%s&scheme=%s&prefetcher=%s", c.App, c.Scheme, c.Prefetcher)
}

// coldSet picks one session's cold cells: the figures' cells in seeded
// order, then a seeded sample of the rest of the paper grid.
func coldSet(rng *rand.Rand) []experiments.Cell {
	fixed := map[experiments.Cell]bool{}
	var cells, rest []experiments.Cell
	for _, slug := range figureSlugs {
		for _, c := range figureCells()[slug] {
			fixed[c] = true
			cells = append(cells, c)
		}
	}
	for _, c := range paperGrid() {
		if !fixed[c] {
			rest = append(rest, c)
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return append(cells, rest[:coldCells-len(cells)]...)
}

// plan builds each connection's request list. Cold cell i goes to
// connection i mod connections, in order; the seed places the cold
// requests among the others and picks every other request's kind and
// target. Warm targets are cells whose cold request comes earlier in the
// global order than this connection's latest one, so a connection only
// ever waits for cells the other connection asks for before it can
// itself need to wait: the loop cannot deadlock.
func plan(rng *rand.Rand, cells []experiments.Cell) (lists [connections][]request) {
	index := map[experiments.Cell]int{}
	paths := make([]string, len(cells))
	for i, c := range cells {
		index[c] = i
		paths[i] = cellPath(c)
	}
	// figLast is the global index of the last cold cell a figure needs.
	figLast := map[string]int{}
	figAfter := map[string][]string{}
	for _, slug := range figureSlugs {
		fig := "figures/" + slug
		for _, c := range figureCells()[slug] {
			figLast[fig] = max(figLast[fig], index[c])
			figAfter[fig] = append(figAfter[fig], cellPath(c))
		}
	}
	for conn := range lists {
		var own []int // this connection's cold cells, by global index
		for i := conn; i < len(cells); i += connections {
			own = append(own, i)
		}
		// The first request is cold; the seed spreads the other cold
		// requests among the rest.
		isCold := make([]bool, len(own)-1+othersPerConn)
		for k := range len(own) - 1 {
			isCold[k] = true
		}
		rng.Shuffle(len(isCold), func(i, j int) { isCold[i], isCold[j] = isCold[j], isCold[i] })
		isCold = append([]bool{true}, isCold...)

		list := &lists[conn]
		last := -1           // global index of the latest cold request
		var fetched []string // figures this connection has fetched
		for _, cold := range isCold {
			if cold {
				last = own[0]
				own = own[1:]
				*list = append(*list, request{kind: "cold", path: paths[last], conn: conn})
				continue
			}
			var figs []string
			for _, slug := range figureSlugs {
				if fig := "figures/" + slug; figLast[fig] <= last {
					figs = append(figs, fig)
				}
			}
			cell := paths[rng.IntN(last+1)]
			warmCell := request{kind: "warm", path: cell, conn: conn, after: []string{cell}}
			switch x := rng.IntN(100); {
			case x < 40 && len(figs) > 0:
				fig := figs[rng.IntN(len(figs))]
				*list = append(*list, request{kind: "warm", path: fig, conn: conn, after: figAfter[fig]})
				if !slices.Contains(fetched, fig) {
					fetched = append(fetched, fig)
				}
			case x < 80:
				*list = append(*list, warmCell)
			case x < 88 || x < 96 && len(fetched) == 0:
				*list = append(*list, request{kind: "reval", path: cell, etagOf: cell, conn: conn, after: []string{cell}})
			case x < 96:
				fig := fetched[rng.IntN(len(fetched))]
				*list = append(*list, request{kind: "reval", path: fig, etagOf: fig, conn: conn})
			case last > 0:
				other := paths[rng.IntN(last)]
				if other == cell {
					other = paths[last]
				}
				*list = append(*list, request{kind: "stale", path: cell, etagOf: other, conn: conn, after: []string{cell, other}})
			default:
				*list = append(*list, warmCell)
			}
		}
	}
	return lists
}

// client runs a session's requests and checks every response.
type client struct {
	r     *run
	http  *http.Client
	base  string
	mu    sync.Mutex // guards s and etags
	s     *session
	etags map[string]string
	// answered holds a channel per cold cell path, closed once its cold
	// request has finished.
	answered map[string]chan struct{}
}

// do waits for the cold answers the request depends on, then sends it and
// records its latency by kind.
func (c *client) do(q request) {
	if q.kind == "cold" {
		defer close(c.answered[q.path])
	}
	for _, p := range q.after {
		select {
		case <-c.answered[p]:
		case <-c.r.ctx.Done():
			return
		}
	}
	req, err := http.NewRequestWithContext(c.r.ctx, http.MethodGet, c.base+q.path, nil)
	if err != nil {
		c.r.check(false, "%s: %v", q.path, err)
		return
	}
	c.mu.Lock()
	sent := c.etags[q.etagOf]
	c.mu.Unlock()
	if q.etagOf != "" {
		if sent == "" {
			c.r.check(false, "%s: no ETag recorded for %s", q.path, q.etagOf)
			return
		}
		req.Header.Set("If-None-Match", sent)
	}
	_, end := c.r.spans.begin(fmt.Sprintf("conn-%d", q.conn), "serve."+q.kind, 0)
	resp, err := c.http.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := ms(end())
	if err != nil {
		c.r.check(false, "%s: %v", q.path, err)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.s
	s.requests++
	kind := strings.SplitN(q.path, "?", 2)[0]
	if strings.HasPrefix(kind, "figures/") {
		kind = "figures"
	}
	switch {
	case q.kind == "reval":
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			c.r.check(false, "%s with its own ETag: status %d, %d body bytes; want 304", q.path, resp.StatusCode, len(body))
			return
		}
		s.notModified = append(s.notModified, lat)
		s.byKind["not_modified"] = append(s.byKind["not_modified"], lat)
		c.r.check(true, "")
		return
	case resp.StatusCode != http.StatusOK:
		c.r.check(false, "%s (%s): status %d: %s", q.path, q.kind, resp.StatusCode, lastLines(body, 2))
		return
	}
	etag := resp.Header.Get("ETag")
	if prev, ok := s.bodies[q.path]; ok {
		if !bytes.Equal(prev, body) || c.etags[q.path] != etag {
			c.r.check(false, "%s (%s): body or ETag differs from the first answer", q.path, q.kind)
			return
		}
	} else {
		if q.kind != "cold" && kind != "figures" {
			c.r.check(false, "%s: warm request before its cold answer", q.path)
			return
		}
		if kind == "cells" {
			var cr api.CellsResponse
			if err := json.Unmarshal(body, &cr); err != nil || len(cr.Cells) != 1 || cr.Cells[0].Error != nil || cr.ETag != etag {
				c.r.check(false, "%s: bad cell answer: %s", q.path, lastLines(body, 2))
				return
			}
			s.cells[experiments.CellFromAPI(cr.Cells[0].Cell)] = cr.Cells[0].Result
		}
		s.bodies[q.path] = body
		c.etags[q.path] = etag
	}
	if q.kind == "cold" {
		s.cold = append(s.cold, lat)
	} else {
		s.warm = append(s.warm, lat)
	}
	s.byKind[kind] = append(s.byKind[kind], lat)
	c.r.check(true, "")
}

// stats reads the daemon's answered and computed cell counters.
func (c *client) stats() (answered, computed int, err error) {
	resp, err := c.http.Get(c.base + "stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, err
	}
	return st.CellsComputed + st.CellsFromCache, st.CellsComputed, nil
}

// fig10Grid asks the daemon for the whole Fig 10 grid, one request per
// datacenter app, and checks every answered cell against the session's
// cold answer for it where there was one.
func (c *client) fig10Grid() (map[experiments.Cell]cpu.Result, error) {
	schemes := strings.Join(append([]string{experiments.Baseline}, experiments.Fig10Schemes...), ",")
	out := map[experiments.Cell]cpu.Result{}
	for _, p := range workload.Datacenter() {
		resp, err := c.http.Get(c.base + fmt.Sprintf("cells?app=%s&scheme=%s&prefetcher=fdp", p.Name, schemes))
		if err != nil {
			return nil, err
		}
		var cr api.CellsResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("/v1/cells for %s: status %d: %v", p.Name, resp.StatusCode, err)
		}
		for _, o := range cr.Cells {
			cell := experiments.CellFromAPI(o.Cell)
			var res cpu.Result
			if o.Error != nil || json.Unmarshal(o.Result, &res) != nil {
				return nil, fmt.Errorf("/v1/cells: %s: %v", cell, o.Error)
			}
			if cold, ok := c.s.cells[cell]; ok {
				c.r.check(bytes.Equal(cold, o.Result), "%s: cold and later answers differ", cell)
			}
			out[cell] = res
		}
	}
	return out, nil
}

// runSession starts a daemon over the stores, sends one seeded request
// mix, and stops the daemon. after, if set, runs against the still-live
// daemon once the measured part is over.
func (r *run) runSession(rep int, art, res string, after func(*client) error) (*session, error) {
	rng := rand.New(rand.NewPCG(r.seed, uint64(rep)))
	lists := plan(rng, coldSet(rng))
	d, err := r.startDaemon(art, res)
	if err != nil {
		return nil, err
	}
	s := &session{startup: d.startup, startupCPU: d.startupCPU, byKind: map[string][]float64{},
		bodies: map[string][]byte{}, cells: map[experiments.Cell]json.RawMessage{}}
	c := &client{r: r, base: d.base, s: s, etags: map[string]string{}, answered: map[string]chan struct{}{}, http: &http.Client{
		Timeout:   procTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: connections, MaxConnsPerHost: connections},
	}}
	for _, list := range lists {
		for _, q := range list {
			if q.kind == "cold" {
				c.answered[q.path] = make(chan struct{})
			}
		}
	}
	sessionErr := func() error {
		answered0, computed0, err := c.stats()
		if err != nil {
			return fmt.Errorf("/v1/stats: %w", err)
		}
		cpu0 := d.cpuTime()
		start := time.Now()
		var wg sync.WaitGroup
		for _, list := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, q := range list {
					c.do(q)
				}
			}()
		}
		wg.Wait()
		s.wall = time.Since(start)
		s.cpu = d.cpuTime() - cpu0
		s.rssMB = d.peakRSSMB()
		answered1, computed1, err := c.stats()
		if err != nil {
			return fmt.Errorf("/v1/stats: %w", err)
		}
		s.answered, s.computed = answered1-answered0, computed1-computed0
		if after != nil {
			return after(c)
		}
		return nil
	}()
	c.http.CloseIdleConnections()
	stopErr := d.stop()
	if sessionErr != nil {
		return nil, sessionErr
	}
	r.check(stopErr == nil, "acic-serve shutdown: %v", stopErr)
	return s, nil
}

// serveMetrics pools the sessions' samples into the serve.* metrics.
func (r *run) serveMetrics(sessions []*session) {
	var cold, warm []float64
	var rps []float64
	var per []string
	for _, s := range sessions {
		cold = append(cold, s.cold...)
		warm = append(warm, s.warm...)
		rps = append(rps, float64(s.requests)/s.wall.Seconds())
		per = append(per, fmt.Sprintf("%.1f/%.3f/%.2f", median(s.cold), median(s.warm), quantile(s.warm, 0.99)))
	}
	r.info("per session cold p50/warm p50/p99 ms", per)
	r.check(tailOK(len(cold), 0.9), "only %d cold samples: p90 needs ten beyond it", len(cold))
	r.check(tailOK(len(warm), 0.99), "only %d warm samples: p99 needs ten beyond it", len(warm))
	r.set("serve.cold_p50_ms", median(cold), "ms")
	r.set("serve.cold_p90_ms", quantile(cold, 0.9), "ms")
	r.set("serve.warm_p50_ms", median(warm), "ms")
	r.set("serve.warm_p99_ms", quantile(warm, 0.99), "ms")
	r.set("serve.rps", median(rps), "1/s")
	r.info("serve samples", fmt.Sprintf("%d sessions: %d cold, %d warm", len(sessions), len(cold), len(warm)))
}

// checkFigures compares the sessions' figure bodies with acic-bench's
// output for the same stores, and the cold cell answers with the store.
func (r *run) checkFigures(s *session, art, res string) error {
	p := r.exec("acic-bench", r.benchArgs(strings.Join(figureSlugs, ","), res, art)...)
	if p.err != nil {
		return p.err
	}
	for _, slug := range figureSlugs {
		want, ok := figureBody(p.stdout, slug)
		r.check(ok && want == string(s.bodies["figures/"+slug]),
			"/v1/figures/%s differs from acic-bench -exp %s", slug, slug)
	}
	get, err := r.storeLookup(res)
	if err != nil {
		return err
	}
	for cell, raw := range s.cells {
		var served cpu.Result
		stored, err := get(cell.App, cell.Scheme, cell.Prefetcher)
		r.check(err == nil && json.Unmarshal(raw, &served) == nil && served == stored,
			"%s: served result differs from the result store (%v)", cell, err)
	}
	return nil
}
