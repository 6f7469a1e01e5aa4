package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"acic/internal/api"
	"acic/internal/distrib"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
)

const (
	testN    = 12_000
	testApp  = "media-streaming"
	testApp2 = "sibench"
)

// newTestSuite builds a suite with the fixed test configuration; every
// suite built here is byte-identical to every other, which is what the
// serve-vs-CLI diffs rely on.
func newTestSuite(t *testing.T) *experiments.Suite {
	t.Helper()
	s := experiments.NewSuite(testN)
	s.Apps = []string{testApp, testApp2}
	s.Workers = 2
	if err := s.CacheError(); err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer wires a server over a fresh test suite and serves it
// from an httptest listener.
func newTestServer(t *testing.T, breaker *engine.Breaker, faultBudget int64) (*server, string) {
	t.Helper()
	if breaker == nil {
		breaker = engine.NewBreaker(0, 0)
	}
	srv := newServer(newTestSuite(t), breaker, faultBudget)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// newWorkerServer is newTestServer with a result cache in a scratch
// directory, so the daemon accepts workers: it mounts the coordinator
// and serves the cache as the shared store on its own listener. The
// httptest server's *http.Server is returned for drain tests.
func newWorkerServer(t *testing.T) (*server, string, *http.Server) {
	t.Helper()
	suite := newTestSuite(t)
	suite.CacheDir = t.TempDir()
	if err := suite.CacheError(); err != nil {
		t.Fatal(err)
	}
	srv := newServer(suite, engine.NewBreaker(0, 0), 0)
	if err := srv.acceptWorkers(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.coord.Close)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL, ts.Config
}

// startWorkers runs n in-process acic-workers against url; wait blocks
// until all of them have returned and fails the test on any error.
func startWorkers(t *testing.T, ctx context.Context, url string, n int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = distrib.RunWorker(ctx, distrib.WorkerOptions{Coord: url, Workers: 2, Name: fmt.Sprintf("w%d", i)})
		}(i)
	}
	return func() {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}
	}
}

// distribStats reads the distrib block of /v1/stats, failing the test
// when the daemon does not report one.
func distribStats(t *testing.T, url string) api.DistribStats {
	t.Helper()
	var st api.Stats
	if err := json.Unmarshal([]byte(body(t, get(t, url+"/v1/stats"))), &st); err != nil {
		t.Fatal(err)
	}
	if st.Distrib == nil {
		t.Fatal("/v1/stats has no distrib block")
	}
	return *st.Distrib
}

// waitLive polls /v1/stats until a worker has claimed, so the query that
// follows routes through the coordinator instead of racing the first
// claim.
func waitLive(t *testing.T, url string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !distribStats(t, url).Live; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no worker claimed within 30s")
		}
	}
}

func get(t *testing.T, url string, headers ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func body(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeFiguresByteIdentical is the tentpole invariant: for every
// registry experiment, the /v1/figures/{slug} body equals the output
// e.Run produces on an identically-configured local suite — the daemon
// adds transport, never bytes.
func TestServeFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry simulation grid")
	}
	ref := newTestSuite(t)
	_, url := newTestServer(t, nil, 0)
	for _, e := range experiments.Registry() {
		want, err := e.Run(ref)
		if err != nil {
			t.Fatalf("reference %s: %v", e.Slug, err)
		}
		resp := get(t, url+"/v1/figures/"+e.Slug)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/figures/%s = %s", e.Slug, resp.Status)
		}
		if got := body(t, resp); got != want {
			t.Errorf("%s: served bytes differ from CLI render\n--- got ---\n%s--- want ---\n%s", e.Slug, got, want)
		}
	}
}

// TestServeFigureETag304: a warm re-query with the figure's ETag costs
// no render — 304, empty body.
func TestServeFigureETag304(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	srv, url := newTestServer(t, nil, 0)
	resp := get(t, url+"/v1/figures/table3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first GET = %s", resp.Status)
	}
	etag := resp.Header.Get("ETag")
	body(t, resp)
	if etag == "" {
		t.Fatal("no ETag on figure response")
	}
	computed, _, _ := srv.suite.Stats()
	resp = get(t, url+"/v1/figures/table3", "If-None-Match", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %s, want 304", resp.Status)
	}
	if b := body(t, resp); b != "" {
		t.Errorf("304 carried a body: %q", b)
	}
	if after, _, _ := srv.suite.Stats(); after != computed {
		t.Errorf("304 re-query computed %d new cells", after-computed)
	}
}

// TestServeCellsETag304: same contract on the cells endpoint, plus the
// response echoes its ETag in the JSON body.
func TestServeCellsETag304(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	_, url := newTestServer(t, nil, 0)
	q := url + "/v1/cells?app=" + testApp + "&scheme=lru,acic"
	resp := get(t, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cells = %s", resp.Status)
	}
	etag := resp.Header.Get("ETag")
	var cr api.CellsResponse
	if err := json.Unmarshal([]byte(body(t, resp)), &cr); err != nil {
		t.Fatal(err)
	}
	if etag == "" || cr.ETag != etag {
		t.Fatalf("ETag header %q vs body %q", etag, cr.ETag)
	}
	if len(cr.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cr.Cells))
	}
	for _, c := range cr.Cells {
		if c.Error != nil {
			t.Fatalf("cell %s failed: %+v", c.Cell, c.Error)
		}
		if c.Key == "" || len(c.Result) == 0 {
			t.Fatalf("cell %s has no key/result", c.Cell)
		}
	}
	resp = get(t, q, "If-None-Match", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %s, want 304", resp.Status)
	}
	body(t, resp)
}

// TestServeCellsCoalesce: concurrent identical cell queries coalesce
// through the suite's per-cell singleflight — the simulation runs once,
// every response carries the same result.
func TestServeCellsCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	srv, url := newTestServer(t, nil, 0)
	q := url + "/v1/cells?app=" + testApp + "&scheme=lru"
	const clients = 8
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(q)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %s", i, resp.Status)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d saw different bytes", i)
		}
	}
	if computed, _, _ := srv.suite.Stats(); computed != 1 {
		t.Errorf("computed %d cells for %d identical queries, want 1", computed, clients)
	}
}

// TestServeBreakerTripsOnDeterministicCell: a cell that fails
// deterministically (unknown scheme) trips its key after the threshold;
// further queries answer circuit_open without touching the engine, and
// the cooldown admits a probe.
func TestServeBreakerTripsOnDeterministicCell(t *testing.T) {
	breaker := engine.NewBreaker(2, time.Hour)
	_, url := newTestServer(t, breaker, 0)
	q := url + "/v1/cells?app=" + testApp + "&scheme=no-such-scheme"
	codes := make([]string, 3)
	for i := range codes {
		resp := get(t, q)
		var cr api.CellsResponse
		if err := json.Unmarshal([]byte(body(t, resp)), &cr); err != nil {
			t.Fatal(err)
		}
		if len(cr.Cells) != 1 || cr.Cells[0].Error == nil {
			t.Fatalf("query %d: expected one failed cell, got %+v", i, cr.Cells)
		}
		codes[i] = cr.Cells[0].Error.Code
	}
	if codes[0] != api.CodeCellError || codes[1] != api.CodeCellError {
		t.Errorf("pre-trip codes = %v, want cell_error", codes[:2])
	}
	if codes[2] != api.CodeCircuitOpen {
		t.Errorf("post-trip code = %q, want %q", codes[2], api.CodeCircuitOpen)
	}
	if n := breaker.OpenCount(); n != 1 {
		t.Errorf("OpenCount = %d, want 1", n)
	}
}

// TestServeFigureBreaker: figures trip the same way — a registry slug
// whose render fails deterministically (unknown workload in Apps) opens
// the exp: key and later queries get 503 circuit_open.
func TestServeFigureBreaker(t *testing.T) {
	s := experiments.NewSuite(testN)
	s.Apps = []string{"no-such-app"}
	s.Workers = 1
	srv := newServer(s, engine.NewBreaker(1, time.Hour), 0)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	resp := get(t, ts.URL+"/v1/figures/table3")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("broken figure = %s, want 500", resp.Status)
	}
	var env api.Envelope
	if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err == nil || env.Err.Code != api.CodeCellError {
		t.Fatalf("broken figure envelope = %+v", env.Err)
	}

	resp = get(t, ts.URL+"/v1/figures/table3")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped figure = %s, want 503", resp.Status)
	}
	if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err == nil || env.Err.Code != api.CodeCircuitOpen {
		t.Fatalf("tripped figure envelope = %+v", env.Err)
	}
}

// TestServeFaultBudget: with heavy injected faults and a one-recovery
// budget, the request is refused with fault_budget_exhausted rather
// than silently absorbing unbounded recovery work.
func TestServeFaultBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted simulation")
	}
	if err := faults.Install("panic-cell:every=2;seed=3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faults.Install("") })
	_, url := newTestServer(t, nil, 1)
	resp := get(t, url+"/v1/cells?app="+testApp+","+testApp2+"&scheme=lru,acic,opt")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted request = %s, want 503", resp.Status)
	}
	var env api.Envelope
	if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err == nil || env.Err.Code != api.CodeFaultBudget || !env.Err.Transient {
		t.Fatalf("fault-budget envelope = %+v", env.Err)
	}
	// The engine still recovered: once the injector is gone, the same
	// query succeeds from the warm memo.
	faults.Install("")
	resp = get(t, url+"/v1/cells?app="+testApp+","+testApp2+"&scheme=lru,acic,opt")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request = %s, want 200; body: %s", resp.Status, body(t, resp))
	}
	body(t, resp)
}

// TestServeExperimentsMatchesRegistry: /v1/experiments serves exactly
// the registry slugs, in order.
func TestServeExperimentsMatchesRegistry(t *testing.T) {
	_, url := newTestServer(t, nil, 0)
	resp := get(t, url+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET experiments = %s", resp.Status)
	}
	var er api.ExperimentsResponse
	if err := json.Unmarshal([]byte(body(t, resp)), &er); err != nil {
		t.Fatal(err)
	}
	reg := experiments.Registry()
	if len(er.Experiments) != len(reg) {
		t.Fatalf("served %d experiments, registry has %d", len(er.Experiments), len(reg))
	}
	for i, e := range reg {
		if er.Experiments[i].Slug != e.Slug || er.Experiments[i].Description != e.Desc {
			t.Errorf("entry %d = %+v, want {%s %s}", i, er.Experiments[i], e.Slug, e.Desc)
		}
	}
}

// TestServeErrorEnvelopes pins the error contract across the endpoints:
// unknown figures 404, missing cell params 400, wrong verbs 405,
// unversioned paths 404 — all api.Envelope with the right code.
func TestServeErrorEnvelopes(t *testing.T) {
	_, url := newTestServer(t, nil, 0)
	cases := []struct {
		method, path string
		wantStatus   int
		wantCode     string
	}{
		{http.MethodGet, "/v1/figures/no-such-figure", http.StatusNotFound, api.CodeNotFound},
		{http.MethodGet, "/v1/cells", http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodGet, "/v1/cells?scheme=lru", http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodGet, "/v1/cells?app=all&scheme=" + experiments.AnalysisScheme, http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodGet, "/v1/cells?app=,&scheme=lru", http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodPost, "/v1/experiments", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{http.MethodGet, "/api/config", http.StatusNotFound, api.CodeNotFound},
		{http.MethodGet, "/", http.StatusNotFound, api.CodeNotFound},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, url+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		var env api.Envelope
		if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
			t.Fatalf("%s %s: body is not an envelope: %v", tc.method, tc.path, err)
		}
		if env.Err == nil || env.Err.Code != tc.wantCode {
			t.Errorf("%s %s code = %+v, want %s", tc.method, tc.path, env.Err, tc.wantCode)
		}
	}
}

// TestServeCellsRejectsAnalysis: an analysis cell has no cpu.Result, so
// /v1/cells refuses its scheme by name, alone or inside a list, without
// computing anything; scheme=all still expands to the simulation schemes.
func TestServeCellsRejectsAnalysis(t *testing.T) {
	srv, url := newTestServer(t, nil, 0)
	for _, q := range []string{"app=" + testApp + "&scheme=" + experiments.AnalysisScheme,
		"app=all&scheme=lru," + experiments.AnalysisScheme + "&prefetcher=none"} {
		resp := get(t, url+"/v1/cells?"+q)
		var env api.Envelope
		if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
			t.Fatalf("%s: body is not an envelope: %v", q, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Err == nil || env.Err.Code != api.CodeBadRequest ||
			!strings.Contains(env.Err.Message, strconv.Quote(experiments.AnalysisScheme)) {
			t.Errorf("%s = %d %+v, want 400 bad_request naming %q", q, resp.StatusCode, env.Err, experiments.AnalysisScheme)
		}
	}
	if computed, _, _ := srv.suite.Stats(); computed != 0 {
		t.Errorf("rejected queries computed %d cells", computed)
	}

	cells, apiErr := parseCellsQuery(neturl.Values{"app": {"all"}, "scheme": {"all"}}, srv.suite.AppNames())
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if want := len(srv.suite.AppNames()) * len(experiments.SchemeNames()); len(cells) != want {
		t.Errorf("scheme=all&app=all expands to %d cells, want %d", len(cells), want)
	}
}

// FuzzCellsQuery drives /v1/cells query parsing with arbitrary query
// strings: a refused query is a bad_request with a message, and an
// accepted one is the full, non-empty cross product of its lists with
// every coordinate trimmed and non-empty and no analysis cell in it.
func FuzzCellsQuery(f *testing.F) {
	f.Add("app=media-streaming&scheme=lru,acic&prefetcher=fdp,entangling")
	f.Add("app=all&scheme=all")
	f.Add("app=all&scheme=analysis")
	f.Add("app=,&scheme=lru")
	f.Add("app=sibench&scheme=lru&prefetcher=%2C")
	apps := []string{testApp, testApp2}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := neturl.ParseQuery(raw) // what r.URL.Query() does
		cells, apiErr := parseCellsQuery(q, apps)
		if apiErr != nil {
			if apiErr.Code != api.CodeBadRequest || apiErr.Message == "" || cells != nil {
				t.Fatalf("%q: refused with %+v and %d cells", raw, apiErr, len(cells))
			}
			return
		}
		count := func(key string, all []string, dflt int) int {
			v := q.Get(key)
			switch {
			case v == "all" && all != nil:
				return len(all)
			case v == "":
				return dflt
			}
			return len(splitParam(v))
		}
		want := count("app", apps, 0) * count("scheme", experiments.SchemeNames(), 0) * count("prefetcher", nil, 1)
		if want == 0 || len(cells) != want {
			t.Fatalf("%q: accepted %d cells, want the %d-cell cross product", raw, len(cells), want)
		}
		for _, c := range cells {
			for _, v := range []string{c.App, c.Scheme, c.Prefetcher} {
				if v == "" || v != strings.TrimSpace(v) || strings.Contains(v, ",") {
					t.Fatalf("%q: accepted malformed cell %s", raw, c)
				}
			}
			if !c.Simulates() {
				t.Fatalf("%q: accepted non-simulation cell %s", raw, c)
			}
		}
	})
}

// TestServeHealthzAndStats: the two observability endpoints answer with
// the versioned shapes.
func TestServeHealthzAndStats(t *testing.T) {
	_, url := newTestServer(t, nil, 0)
	var h api.Health
	if err := json.Unmarshal([]byte(body(t, get(t, url+"/v1/healthz"))), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != api.Version {
		t.Errorf("healthz = %+v", h)
	}
	var st api.Stats
	if err := json.Unmarshal([]byte(body(t, get(t, url+"/v1/stats"))), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != api.Version || st.N != testN || st.Requests < 1 {
		t.Errorf("stats = %+v", st)
	}
	// Gang width is derived from N: below experiments.GangMinTrace the
	// daemon runs no gangs and gang_size stays absent.
	if st.GangSize != 0 || strings.Contains(body(t, get(t, url+"/v1/stats")), `"gang_size"`) {
		t.Errorf("stats.gang_size = %d at n=%d, want absent", st.GangSize, testN)
	}
	var fs experiments.FaultStats
	if err := json.Unmarshal(st.Faults, &fs); err != nil {
		t.Errorf("stats.faults is not a FaultStats: %v", err)
	}
	if st.Distrib != nil {
		t.Errorf("daemon without a result cache reports a distrib block: %+v", st.Distrib)
	}
}

// cellsComputed reads /v1/stats' cells_computed counter.
func cellsComputed(t *testing.T, url string) int {
	t.Helper()
	var st api.Stats
	if err := json.Unmarshal([]byte(body(t, get(t, url+"/v1/stats"))), &st); err != nil {
		t.Fatal(err)
	}
	return st.CellsComputed
}

// TestServeFig15CountsEverySimulation: every simulation a figure runs is
// a cell the daemon counts. A cold Fig 15 computes exactly its 10 variant
// cells per app plus the lru and acic cells, a second GET computes
// nothing, and a variant cell is addressable on /v1/cells with a strong
// ETag.
func TestServeFig15CountsEverySimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	_, url := newTestServer(t, nil, 0)
	before := cellsComputed(t, url)
	resp := get(t, url+"/v1/figures/fig15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET fig15 = %s", resp.Status)
	}
	first := body(t, resp)
	want := 2 * (10 + 2) // apps × (10 variants + lru + acic)
	if got := cellsComputed(t, url) - before; got != want {
		t.Errorf("cold fig15 computed %d cells, want %d", got, want)
	}
	before = cellsComputed(t, url)
	if again := body(t, get(t, url+"/v1/figures/fig15")); again != first {
		t.Error("second fig15 GET differs from the first")
	}
	if got := cellsComputed(t, url) - before; got != 0 {
		t.Errorf("second fig15 GET computed %d cells, want 0", got)
	}

	// A cold server answers a variant cell directly.
	_, url2 := newTestServer(t, nil, 0)
	resp = get(t, url2+"/v1/cells?app="+testApp+"&scheme=acic@10bit-history")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET variant cell = %s", resp.Status)
	}
	etag := resp.Header.Get("ETag")
	var cr api.CellsResponse
	if err := json.Unmarshal([]byte(body(t, resp)), &cr); err != nil {
		t.Fatal(err)
	}
	if etag == "" || strings.HasPrefix(etag, "W/") || cr.ETag != etag {
		t.Errorf("variant cell ETag %q (body %q), want a strong ETag", etag, cr.ETag)
	}
	if len(cr.Cells) != 1 || cr.Cells[0].Error != nil || len(cr.Cells[0].Result) == 0 {
		t.Fatalf("variant cell response = %+v", cr.Cells)
	}
	if got := cellsComputed(t, url2); got != 1 {
		t.Errorf("variant cell query computed %d cells, want 1", got)
	}
}

// TestServeWithWorkersByteIdentical: a daemon with two in-process
// workers renders fig10 byte-identical to a workerless daemon, with the
// cells completed remotely.
func TestServeWithWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	_, plainURL := newTestServer(t, nil, 0)
	want := body(t, get(t, plainURL+"/v1/figures/fig10"))

	srv, url, _ := newWorkerServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := startWorkers(t, ctx, url, 2)
	waitLive(t, url)
	resp := get(t, url+"/v1/figures/fig10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET fig10 with workers = %s", resp.Status)
	}
	got := body(t, resp)
	st := distribStats(t, url)
	srv.coord.Close() // workers see Done and exit
	wait()
	if got != want {
		t.Errorf("fig10 with workers differs from a workerless daemon\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if st.Completed == 0 || st.Batches == 0 {
		t.Errorf("distrib stats %+v: no cells completed remotely", st)
	}
}

// TestServeWorkerlessNeverEnqueues pins "no cost without workers": a
// daemon that accepts workers but has none answers a cold cell query
// locally and never enqueues a batch, while its /api/ and store routes
// are mounted. It advertises no store URL, so workers use the URL they
// reach the daemon by as the shared store.
func TestServeWorkerlessNeverEnqueues(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	_, url, _ := newWorkerServer(t)
	resp := get(t, url+"/v1/cells?app="+testApp+"&scheme=lru,acic")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cells = %s", resp.Status)
	}
	body(t, resp)
	if got := cellsComputed(t, url); got != 2 {
		t.Errorf("cold query computed %d cells locally, want 2", got)
	}
	if st := distribStats(t, url); st.Live || st.Batches != 0 {
		t.Errorf("workerless distrib stats %+v, want not live and 0 batches", st)
	}
	var cfg api.WorkerConfig
	if err := json.Unmarshal([]byte(body(t, get(t, url+"/api/config"))), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.StoreURL != "" || cfg.N != testN {
		t.Errorf("/api/config = %+v, want no store URL and n %d", cfg, testN)
	}
	var h api.Health
	if err := json.Unmarshal([]byte(body(t, get(t, url+"/healthz"))), &h); err != nil || h.Status != "ok" {
		t.Errorf("store /healthz = %+v (%v)", h, err)
	}
}

// TestServeDrainReleasesWorkers: the daemon's shutdown drain closes the
// coordinator before the listener, so a polling worker hears Done and
// returns nil instead of failing on a refused connection.
func TestServeDrainReleasesWorkers(t *testing.T) {
	srv, url, httpSrv := newWorkerServer(t)
	done := make(chan error, 1)
	go func() {
		done <- distrib.RunWorker(context.Background(), distrib.WorkerOptions{Coord: url, Workers: 1, Name: "w"})
	}()
	waitLive(t, url)
	srv.drain(httpSrv)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("worker after drain: %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker still running 30s after the drain")
	}
}

// TestServeDrainAnswersLeasedRequest: a drain that starts while a
// worker holds the batch of an in-flight cell query keeps the listener up
// until the worker reports, so the query is answered with its results
// and the worker still exits 0.
func TestServeDrainAnswersLeasedRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	srv, url, httpSrv := newWorkerServer(t)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- distrib.RunWorker(context.Background(), distrib.WorkerOptions{Coord: url, Workers: 1, Name: "w"})
	}()
	waitLive(t, url)
	type answer struct {
		status int
		cells  api.CellsResponse
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Get(url + "/v1/cells?app=" + testApp + "&scheme=lru,acic")
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		a := answer{status: resp.StatusCode}
		a.err = json.NewDecoder(resp.Body).Decode(&a.cells)
		answered <- a
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := srv.coord.Stats(); st.Claimed > 0 && st.Completed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker never held the query's batch")
		}
	}
	srv.drain(httpSrv)
	select {
	case a := <-answered:
		if a.err != nil || a.status != http.StatusOK {
			t.Fatalf("query leased at drain: status %d, err %v", a.status, a.err)
		}
		for _, c := range a.cells.Cells {
			if c.Error != nil {
				t.Errorf("cell %+v: %+v", c.Cell, c.Error)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query leased at drain never answered")
	}
	if st := srv.coord.Stats(); st.Completed == 0 {
		t.Errorf("distrib stats %+v: the leased batch was not reported", st)
	}
	select {
	case err := <-workerDone:
		if err != nil {
			t.Errorf("worker after drain: %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker still running 30s after the drain")
	}
}

// TestServeAPIPathsAnswerEnvelopes: on the daemon's listener, odd paths
// under /api/ — unclean ones the daemon's mux would redirect — reach the
// coordinator and are answered with an api.Envelope, not a redirect.
func TestServeAPIPathsAnswerEnvelopes(t *testing.T) {
	_, url, _ := newWorkerServer(t)
	for _, path := range []string{"/api", "/api/", "/api/../api/claim", "/api/./config", "/api//claim", "/api/claim/", "/api/nope"} {
		req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.URL.Opaque = path // keep the path unclean on the wire
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		raw := body(t, resp)
		var env api.Envelope
		if err := json.Unmarshal([]byte(raw), &env); err != nil || env.Err == nil || env.Err.Code != api.CodeNotFound {
			t.Errorf("POST %s = %d %q, want a not_found envelope", path, resp.StatusCode, raw)
		}
	}
}

// TestPreloadUnknownSlugFails: -preload validates slugs through the
// registry lookup instead of silently warming nothing.
func TestPreloadUnknownSlugFails(t *testing.T) {
	srv, _ := newTestServer(t, nil, 0)
	if err := runPreload(srv, "no-such-exp"); err == nil {
		t.Error("preload of an unknown slug succeeded")
	}
	if err := runPreload(srv, ""); err != nil {
		t.Errorf("empty preload: %v", err)
	}
}
