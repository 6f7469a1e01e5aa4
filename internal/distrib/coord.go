package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/api"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
)

// CoordinatorOptions configures NewCoordinator. The zero value of every
// field but Config is usable.
type CoordinatorOptions struct {
	// Config is served to workers verbatim (GET /api/config).
	Config Config
	// Lease bounds how long a claimed batch may stay unreported before
	// the sweeper presumes its worker dead and requeues it (default 30s —
	// generously above one gang's latency at bench trace lengths).
	Lease time.Duration
}

const (
	// maxRequeues bounds how many times one batch's cells are requeued
	// (lease expiries and transient failures both count) before they fail
	// transiently back into the Suite's local ladder.
	maxRequeues = 3
	// PollInterval is the claim cadence of a worker with nothing to
	// take. Workers keep claiming while busy — a Want 0 claim is a
	// heartbeat — so a live worker is heard from at least this often.
	PollInterval = 50 * time.Millisecond
	// liveWindow is how recently a worker must have claimed for the
	// coordinator to be Live: forty missed polls, generous against GC
	// pauses on a loaded host, short enough that work stops waiting on a
	// vanished worker pool within seconds.
	liveWindow = 2 * time.Second
	// maxBodyBytes caps /api/claim and /api/complete bodies. A complete
	// report is one batch's cell outcomes — a few KB — so a megabyte is
	// ample headroom while keeping a client on the public listener from
	// streaming an unbounded body into the decoder.
	maxBodyBytes = 1 << 20
)

// batch is the coordinator-side state of one steal unit.
type batch struct {
	id       int64
	app      string
	cells    []experiments.Cell
	done     func(experiments.Cell, error)
	requeues int
	deadline time.Time
	worker   string
}

// Coordinator is the work-stealing scheduler behind acic-serve's /api/
// routes. It implements experiments.Remote: the Suite submits same-app
// cell groups while a worker is Live, workers claim them over HTTP, and
// each cell's completion flows back through the done callback with the
// engine's transient/deterministic split intact. All methods are safe
// for concurrent use.
type Coordinator struct {
	cfg   Config
	lease time.Duration

	mu     sync.Mutex
	nextID int64
	ready  []*batch
	leased map[int64]*batch
	closed bool

	// lastClaim is the UnixNano of the latest claim (0 = never), read
	// lock-free by Live on every Suite.Require.
	lastClaim atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}

	batches   atomic.Int64
	claimed   atomic.Int64
	completed atomic.Int64
	requeued  atomic.Int64
	localFell atomic.Int64
}

var _ experiments.Remote = (*Coordinator)(nil)

// NewCoordinator creates a coordinator and starts its lease sweeper.
// Call Close when the run is over.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		cfg:    opts.Config,
		lease:  opts.Lease,
		leased: make(map[int64]*batch),
		stop:   make(chan struct{}),
	}
	if c.lease <= 0 {
		c.lease = 30 * time.Second
	}
	go c.sweep()
	return c
}

// Submit implements experiments.Remote: one same-app cell group becomes
// one batch on the ready queue — or, once the coordinator is closed and
// no worker will claim again, fails straight back to local execution.
// Never blocks on completion.
func (c *Coordinator) Submit(app string, cells []experiments.Cell, done func(experiments.Cell, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &batch{app: app, cells: cells, done: done}
	if c.closed {
		c.failLocal(b, "coordinator closed")
		return
	}
	c.enqueue(b)
}

// enqueue assigns a fresh ID and appends to the ready queue (FIFO).
// Caller holds mu.
func (c *Coordinator) enqueue(b *batch) {
	c.nextID++
	b.id = c.nextID
	b.deadline = time.Time{}
	b.worker = ""
	c.ready = append(c.ready, b)
	c.batches.Add(1)
}

// failLocal completes every cell of b with a transient error, dropping
// the work back into the Suite's local serial ladder. Called with mu held
// for queue surgery; the done callbacks run without the lock (they may
// simulate).
func (c *Coordinator) failLocal(b *batch, cause string) {
	cells, done := b.cells, b.done
	c.localFell.Add(int64(len(cells)))
	go func() {
		for _, cell := range cells {
			done(cell, engine.MarkTransient(fmt.Errorf("distrib: %s: %s", cell, cause)))
		}
	}()
}

// failReady fails every queued batch back to local execution. Caller
// holds mu.
func (c *Coordinator) failReady(cause string) {
	for _, b := range c.ready {
		c.failLocal(b, cause)
	}
	c.ready = nil
}

// Live reports whether a worker has claimed within the liveness window.
// Suite.Require asks before routing a batch here, so a coordinator no
// worker polls costs nothing: its suite computes locally, exactly as if
// there were no coordinator at all.
func (c *Coordinator) Live() bool {
	return time.Since(time.Unix(0, c.lastClaim.Load())) < liveWindow
}

// Claim grants up to req.Want ready batches, stamping each with a lease.
// A Want of 0 (or an empty queue) grants nothing but still counts as the
// worker's heartbeat; Done reports the coordinator is closed and the
// worker should exit.
func (c *Coordinator) Claim(req ClaimRequest) ClaimResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastClaim.Store(time.Now().UnixNano())
	if c.closed {
		return ClaimResponse{Done: true}
	}
	n := min(req.Want, len(c.ready))
	if n <= 0 {
		return ClaimResponse{WaitMillis: PollInterval.Milliseconds()}
	}
	resp := ClaimResponse{Batches: make([]Batch, 0, n)}
	deadline := time.Now().Add(c.lease)
	for _, b := range c.ready[:n] {
		b.deadline = deadline
		b.worker = req.Worker
		c.leased[b.id] = b
		wire := make([]api.Cell, len(b.cells))
		for i, cell := range b.cells {
			wire[i] = cell.API()
		}
		resp.Batches = append(resp.Batches, Batch{ID: b.id, App: b.app, Cells: wire})
	}
	c.ready = append(c.ready[:0], c.ready[n:]...)
	c.claimed.Add(int64(n))
	return resp
}

// Complete settles a reported batch. A stale BatchID — the lease already
// expired and the batch was requeued under a new ID — is ignored: the
// requeued copy owns the cells now, and whatever the late worker did
// publish still warms the shared store. Cells the report omits are
// treated as transient failures.
func (c *Coordinator) Complete(req CompleteRequest) {
	c.mu.Lock()
	b, ok := c.leased[req.BatchID]
	if ok {
		delete(c.leased, req.BatchID)
	}
	c.mu.Unlock()
	if !ok {
		return
	}

	reported := make(map[api.Cell]CellResult, len(req.Results))
	for _, r := range req.Results {
		reported[r.Cell] = r
	}
	var transient []experiments.Cell
	for _, cell := range b.cells {
		r, ok := reported[cell.API()]
		switch {
		case !ok || (r.Error != nil && r.Error.Transient):
			transient = append(transient, cell)
		case r.Error != nil:
			// A deterministic wire error settles the cell as-is: the
			// *api.Error flows into the suite's memo as the cell's typed
			// error, exactly like a local CellError would.
			c.completed.Add(1)
			b.done(cell, r.Error)
		default:
			c.completed.Add(1)
			b.done(cell, nil)
		}
	}
	if len(transient) == 0 {
		return
	}
	c.requeueCells(b, transient, "transient failures exhausted the requeue budget")
}

// requeueCells puts a batch's still-pending cells back on the ready
// queue — or, past the requeue budget, fails them back to local
// execution.
func (c *Coordinator) requeueCells(b *batch, cells []experiments.Cell, cause string) {
	nb := &batch{app: b.app, cells: cells, done: b.done, requeues: b.requeues + 1}
	c.mu.Lock()
	defer c.mu.Unlock()
	if nb.requeues > maxRequeues || c.closed {
		c.failLocal(nb, cause)
		return
	}
	c.requeued.Add(1)
	c.enqueue(nb)
}

// sweep requeues leased batches whose deadline passed (their worker is
// presumed dead) and fails queued work back to local execution once no
// worker is Live — nobody is left to claim it.
func (c *Coordinator) sweep() {
	interval := c.lease / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		c.mu.Lock()
		var expired []*batch
		for id, b := range c.leased {
			if now.After(b.deadline) {
				delete(c.leased, id)
				expired = append(expired, b)
			}
		}
		if len(c.ready) > 0 && !c.Live() {
			c.failReady("no live worker")
		}
		c.mu.Unlock()
		for _, b := range expired {
			c.requeueCells(b, b.cells, fmt.Sprintf("lease expired %d times (worker %q presumed dead)", b.requeues+1, b.worker))
		}
	}
}

// Close ends the run: subsequent claims answer Done, the sweeper stops,
// and every batch not yet reported — queued or leased — fails back to
// local execution, so no submitted cell is left without an outcome. A
// worker's late report of a batch failed back here is ignored as stale.
// After a run whose Require calls all returned there is nothing left to
// fail back; a daemon shutting down with requests in flight calls Drain.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.failReady("coordinator closed")
	for id, b := range c.leased {
		delete(c.leased, id)
		c.failLocal(b, "coordinator closed before the worker reported")
	}
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
}

// Drain is the graceful Close, bounded by ctx. Claims answer Done at
// once and queued work fails back to local execution, but batches a
// worker already holds get until ctx ends to report — cells already
// simulating run to completion — and a live worker pool gets at least
// three claim polls to hear Done. The caller must keep the listener up
// until Drain returns, so those reports and claims can still arrive.
func (c *Coordinator) Drain(ctx context.Context) {
	c.mu.Lock()
	c.closed = true
	c.failReady("coordinator closed")
	c.mu.Unlock()
	hold := time.Now().Add(3 * PollInterval)
	tick := time.NewTicker(PollInterval / 5)
	defer tick.Stop()
	for c.leases() > 0 || (c.Live() && time.Now().Before(hold)) {
		select {
		case <-ctx.Done():
			c.Close()
			return
		case <-tick.C:
		}
	}
	c.Close()
}

// leases counts the batches workers hold but have not reported.
func (c *Coordinator) leases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leased)
}

// Stats snapshots the coordinator's liveness and scheduling counters:
// the distrib block of acic-serve's /v1/stats.
func (c *Coordinator) Stats() api.DistribStats {
	return api.DistribStats{
		Live:      c.Live(),
		Batches:   c.batches.Load(),
		Claimed:   c.claimed.Load(),
		Completed: c.completed.Load(),
		Requeued:  c.requeued.Load(),
		LocalFell: c.localFell.Load(),
	}
}

// Handler returns the coordinator's HTTP API:
//
//	GET  /api/config   — the run Config for stateless worker setup
//	POST /api/claim    — ClaimRequest -> ClaimResponse
//	POST /api/complete — CompleteRequest -> 204
//
// Errors are api.Envelope: malformed or oversized bodies are
// bad_request, wrong verbs method_not_allowed, any other path not_found.
// Routing is an exact path switch rather than a ServeMux, which would
// answer unclean paths (/api/../api/claim) with a redirect instead of an
// envelope; acic-serve hands every /api/ path to this handler ahead of
// its own mux for the same reason.
func (c *Coordinator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/config":
			if requireMethod(w, r, http.MethodGet) {
				api.WriteJSON(w, http.StatusOK, c.cfg)
			}
		case "/api/claim":
			var req ClaimRequest
			if requireMethod(w, r, http.MethodPost) && decodeBody(w, r, "claim", &req) {
				api.WriteJSON(w, http.StatusOK, c.Claim(req))
			}
		case "/api/complete":
			var req CompleteRequest
			if requireMethod(w, r, http.MethodPost) && decodeBody(w, r, "complete", &req) {
				c.Complete(req)
				w.WriteHeader(http.StatusNoContent)
			}
		default:
			api.WriteError(w, http.StatusNotFound, &api.Error{
				Code: api.CodeNotFound, Message: "no such endpoint: " + r.URL.Path})
		}
	})
}

// requireMethod answers method_not_allowed unless r uses method.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	api.WriteError(w, http.StatusMethodNotAllowed, &api.Error{
		Code: api.CodeMethodNotAllowed, Message: r.URL.Path + " requires " + method})
	return false
}

// decodeBody decodes the request's JSON body, capped at maxBodyBytes,
// into v; on failure it answers bad_request and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	api.WriteError(w, http.StatusBadRequest, &api.Error{
		Code: api.CodeBadRequest, Message: what + " body: " + err.Error()})
	return false
}
