package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/api"
	"acic/internal/distrib"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
)

// server answers the /v1/ query API from one warm Suite: the artifact
// store, prepared Programs, and the per-cell result memo live for the
// process, so the first client pays the cold prepare and every later
// query — cells or whole figures — is served from memory or the
// content-addressed store. Figures are memoized in their own
// singleflight group keyed by slug, so concurrent identical figure
// queries render once.
type server struct {
	suite   *experiments.Suite
	figures *engine.Group[string, string]
	breaker *engine.Breaker

	// faultBudget bounds the fault-recovery work (FaultStats.Recovered
	// delta) one request may consume before it is refused with
	// fault_budget_exhausted; 0 disables the budget. Recovery counters
	// are process-wide, so under concurrent load a request may be
	// charged for a neighbor's recovery — the budget is a degradation
	// tripwire, not precise accounting (DESIGN.md §15).
	faultBudget int64

	// coord, when non-nil, schedules the suite's batches onto
	// acic-worker processes while one is live; store, when non-nil, is
	// the shared result store those workers publish into (set by
	// acceptWorkers).
	coord *distrib.Coordinator
	store http.Handler

	requests atomic.Int64
	started  time.Time
	gridKey  func() string
}

func newServer(suite *experiments.Suite, breaker *engine.Breaker, faultBudget int64) *server {
	s := &server{
		suite:       suite,
		breaker:     breaker,
		faultBudget: faultBudget,
		started:     time.Now(),
		gridKey:     sync.OnceValue(suite.GridKey),
	}
	// Figure renders run inline on the claiming request goroutine
	// (Group.Get); the group exists for its memo and singleflight, not
	// for scheduling, so it gets a minimal pool of its own rather than
	// competing for the suite's simulation slots.
	s.figures = engine.NewGroup(engine.NewPool(1), func(slug string) (string, error) {
		e, ok := experiments.LookupExperiment(slug)
		if !ok {
			return "", &api.Error{Code: api.CodeNotFound, Message: "no such experiment: " + slug}
		}
		return e.Run(suite)
	})
	return s
}

// acceptWorkers makes the daemon the coordinator for acic-worker
// processes (DESIGN.md §14). Workers publish into the daemon's result
// cache, so it needs one: an http(s) store is advertised as is, a local
// -cache-dir is served as the shared store on the daemon's own listener
// and advertised as no URL at all — workers then use the URL they reach
// the daemon by, which stays right behind a wildcard -listen. With no
// result cache there is nothing to share and the daemon stays
// workerless. The suite routes work to the coordinator only while a
// worker is live, so accepting workers costs a workerless daemon
// nothing. Call before handler() and the first query.
func (s *server) acceptWorkers() error {
	storeURL := s.suite.CacheDir
	switch {
	case storeURL == "":
		return nil
	case !engine.IsStoreURL(storeURL):
		store, err := engine.NewStoreHandler(storeURL)
		if err != nil {
			return err
		}
		s.store, storeURL = store, ""
	}
	s.coord = distrib.NewCoordinator(distrib.CoordinatorOptions{Config: distrib.Config{
		N:            s.suite.N,
		Apps:         s.suite.Apps,
		SampleSets:   s.suite.SampleSets,
		SampleOffset: s.suite.SampleOffset,
		StoreURL:     storeURL,
	}})
	s.suite.Remote = s.coord
	return nil
}

// drain shuts the daemon down gracefully within one bounded grace
// period. The coordinator drains first, with the listener still up:
// workers hear Done and exit 0 instead of dying on a refused connection,
// and batches they hold still report, so requests waiting on them get
// their answer. Then in-flight requests finish (cells already simulating
// run to completion — suite.Context cancels only work that has not
// started).
func (s *server) drain(httpSrv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.coord != nil {
		s.coord.Drain(ctx)
	}
	httpSrv.Shutdown(ctx)
}

// handler builds the daemon's mux: the /v1/ query API, plus the
// coordinator protocol under /api/ and the shared store routes when
// acceptWorkers set them up. Method checks are by hand so a wrong verb
// gets the api envelope rather than ServeMux's plain-text 405.
// Every /api/ path goes to the coordinator ahead of the mux, which
// would redirect unclean ones (/api/../api/claim) rather than answer
// them with an envelope.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	get := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			s.requests.Add(1)
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				api.WriteError(w, http.StatusMethodNotAllowed, &api.Error{
					Code: api.CodeMethodNotAllowed, Message: r.URL.Path + " requires GET"})
				return
			}
			h(w, r)
		})
	}
	get(api.Prefix+"healthz", s.handleHealthz)
	get(api.Prefix+"stats", s.handleStats)
	get(api.Prefix+"experiments", s.handleExperiments)
	get(api.Prefix+"figures/{name}", s.handleFigure)
	get(api.Prefix+"cells", s.handleCells)
	if s.store != nil {
		for _, path := range []string{"/blob/", "/quarantine/", "/healthz"} {
			mux.Handle(path, s.store)
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusNotFound, &api.Error{
			Code: api.CodeNotFound, Message: "no such endpoint: " + r.URL.Path + " (the API lives under " + api.Prefix + ")"})
	})
	if s.coord == nil {
		return mux
	}
	coord := s.coord.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/") {
			coord.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.Health{Status: "ok", Version: api.Version})
}

func (s *server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	reg := experiments.Registry()
	resp := api.ExperimentsResponse{Experiments: make([]api.ExperimentInfo, len(reg))}
	for i, e := range reg {
		resp.Experiments[i] = api.ExperimentInfo{Slug: e.Slug, Description: e.Desc}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	computed, fromCache, workloads := s.suite.Stats()
	running, idle, queued := s.suite.Occupancy()
	gs := s.suite.GangStats()
	faultsJSON, _ := json.Marshal(s.suite.FaultStats())
	var ds *api.DistribStats
	if s.coord != nil {
		st := s.coord.Stats()
		ds = &st
	}
	api.WriteJSON(w, http.StatusOK, api.Stats{
		Version:           api.Version,
		N:                 s.suite.N,
		Apps:              s.suite.Apps,
		SampleSets:        s.suite.SampleSets,
		GangSize:          s.suite.GangWidth(),
		Requests:          s.requests.Load(),
		CellsComputed:     int(computed),
		CellsFromCache:    int(fromCache),
		WorkloadsPrepared: int(workloads),
		Occupancy:         api.Occupancy{Running: running, Idle: idle, Queued: queued},
		Gangs: api.GangStats{Gangs: gs.Gangs, Cells: gs.Cells, Mixed: gs.Mixed,
			MaxWidth: int(gs.MaxWidth), Window: int(gs.Window)},
		Faults:        faultsJSON,
		BreakersOpen:  s.breaker.OpenCount(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Distrib:       ds,
	})
}

// etagFor derives a strong ETag from content-addressed key material:
// the keys hash everything the bytes depend on (keys.go), so equal tags
// imply byte-equal bodies and any HTTP cache layer can trust a 304.
func etagFor(material string) string {
	sum := sha256.Sum256([]byte(material))
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// handleFigure serves one registry experiment's rendered output,
// byte-identical to the figure body acic-bench prints for the same
// suite configuration.
func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	slug := r.PathValue("name")
	if _, ok := experiments.LookupExperiment(slug); !ok {
		api.WriteError(w, http.StatusNotFound, &api.Error{
			Code: api.CodeNotFound, Message: "no such experiment: " + slug + " (see " + api.Prefix + "experiments)"})
		return
	}
	// The tag covers the whole grid configuration plus the figure
	// identity — checked before rendering, so a warm client's re-query
	// costs no simulation at all.
	etag := etagFor(s.gridKey() + "|exp:" + slug)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	bkey := "exp:" + slug
	if !s.breaker.Allow(bkey) {
		api.WriteError(w, http.StatusServiceUnavailable, &api.Error{
			Code: api.CodeCircuitOpen, Message: "experiment " + slug + " is circuit-broken after repeated deterministic failures"})
		return
	}
	recoveredBefore := s.suite.FaultStats().Recovered()
	out, err := s.figures.Get(slug)
	s.breaker.Record(bkey, err)
	if err != nil {
		// Drop the memoized failure so a later request (or the breaker's
		// half-open probe) re-renders instead of replaying the error.
		s.figures.Forget(slug)
		status, apiErr := http.StatusInternalServerError, &api.Error{
			Code: api.CodeCellError, Message: slug + ": " + err.Error()}
		if engine.IsTransient(err) {
			status, apiErr.Code, apiErr.Transient = http.StatusServiceUnavailable, api.CodeTransient, true
			// The render spans many cells and any of them may hold the
			// memoized transient fault — sweep them all so the retry
			// recomputes instead of replaying.
			s.suite.ForgetTransient()
		}
		api.WriteError(w, status, apiErr)
		return
	}
	if !s.withinFaultBudget(w, recoveredBefore) {
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	w.Write([]byte(out))
}

// handleCells answers grid cell queries (parseCellsQuery). The full
// cross product is computed as ONE Require batch, so once the trace is
// long enough same-app cells ride shared gangs — a client asking for ten
// schemes of one app pays one Program traversal, exactly like the CLI
// grid.
func (s *server) handleCells(w http.ResponseWriter, r *http.Request) {
	cells, apiErr := parseCellsQuery(r.URL.Query(), s.suite.AppNames())
	if apiErr != nil {
		api.WriteError(w, http.StatusBadRequest, apiErr)
		return
	}

	// ETag over the sorted cell key set: the keys are content addresses,
	// so a match means the client's cached body is still exact — answer
	// 304 before any simulation.
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = s.suite.CellKey(c)
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	etag := etagFor(strings.Join(sorted, "\n"))
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	// Circuit-broken cells answer instantly without compute; the rest go
	// through one Require batch.
	runnable := make([]experiments.Cell, 0, len(cells))
	blocked := make(map[int]bool)
	for i, c := range cells {
		if s.breaker.Allow(keys[i]) {
			runnable = append(runnable, c)
		} else {
			blocked[i] = true
		}
	}
	recoveredBefore := s.suite.FaultStats().Recovered()
	s.suite.Require(runnable...) // per-cell outcomes read below

	outcomes := make([]api.CellOutcome, len(cells))
	for i, c := range cells {
		out := api.CellOutcome{Cell: c.API(), Key: keys[i]}
		if blocked[i] {
			out.Error = &api.Error{Code: api.CodeCircuitOpen, Cell: c.String(),
				Message: "cell is circuit-broken after repeated deterministic failures"}
			outcomes[i] = out
			continue
		}
		res, err := s.suite.Result(c.App, c.Scheme, c.Prefetcher)
		s.breaker.Record(keys[i], err)
		if err != nil {
			code := api.CodeCellError
			if engine.IsTransient(err) {
				code = api.CodeTransient
				// Forget transient failures so a retry recomputes instead
				// of replaying the memoized error.
				s.suite.Forget(c)
			}
			out.Error = &api.Error{Code: code, Message: err.Error(),
				Transient: code == api.CodeTransient, Cell: c.String()}
		} else {
			out.Result, _ = json.Marshal(res)
		}
		outcomes[i] = out
	}
	if !s.withinFaultBudget(w, recoveredBefore) {
		return
	}
	w.Header().Set("ETag", etag)
	api.WriteJSON(w, http.StatusOK, api.CellsResponse{ETag: etag, Cells: outcomes})
}

// withinFaultBudget enforces the per-request fault budget: when serving
// the request consumed more recovery work than allowed, the response is
// a transient 503 — the results themselves are still correct (recovery
// preserves byte-identity), but the infrastructure is degraded enough
// that the client should back off rather than keep hammering it.
func (s *server) withinFaultBudget(w http.ResponseWriter, recoveredBefore int64) bool {
	if s.faultBudget <= 0 {
		return true
	}
	spent := s.suite.FaultStats().Recovered() - recoveredBefore
	if spent <= s.faultBudget {
		return true
	}
	api.WriteError(w, http.StatusServiceUnavailable, &api.Error{
		Code: api.CodeFaultBudget, Transient: true,
		Message: fmt.Sprintf("request consumed %d fault recoveries (budget %d)", spent, s.faultBudget)})
	return false
}

// parseCellsQuery expands a /v1/cells query into its cell batch. app and
// scheme are required, comma-separated lists ("all" expands app to apps
// and scheme to every registered scheme); prefetcher defaults to fdp.
// Every list must name at least one entry. Only simulation cells are
// served: an analysis cell carries no cpu.Result, so naming its scheme is
// a bad request.
func parseCellsQuery(q url.Values, apps []string) ([]experiments.Cell, *api.Error) {
	appParam, schemeParam, pfParam := q.Get("app"), q.Get("scheme"), q.Get("prefetcher")
	if appParam == "" || schemeParam == "" {
		return nil, &api.Error{Code: api.CodeBadRequest,
			Message: "app and scheme query parameters are required (comma-separated; 'all' expands)"}
	}
	appList := splitParam(appParam)
	if appParam == "all" {
		appList = apps
	}
	schemeList := splitParam(schemeParam)
	if schemeParam == "all" {
		schemeList = experiments.SchemeNames()
	}
	pfList := splitParam(pfParam)
	if pfParam == "" {
		pfList = []string{"fdp"}
	}
	if len(appList) == 0 || len(schemeList) == 0 || len(pfList) == 0 {
		return nil, &api.Error{Code: api.CodeBadRequest,
			Message: "app, scheme and prefetcher lists must each name at least one entry"}
	}
	for _, sch := range schemeList {
		if !(experiments.Cell{Scheme: sch}).Simulates() {
			return nil, &api.Error{Code: api.CodeBadRequest,
				Message: fmt.Sprintf("scheme %q is not a simulation; /v1/cells serves simulation results only", sch)}
		}
	}
	var cells []experiments.Cell
	for _, pf := range pfList {
		cells = append(cells, experiments.CrossCells(appList, schemeList, pf)...)
	}
	return cells, nil
}

func splitParam(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
