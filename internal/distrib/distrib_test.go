package distrib

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
)

// testExperiments is the render subset the determinism tests diff: two
// Require-grid experiments (the distributed path) plus a static table (a
// pure-local render that must be untouched by distribution).
var testExperiments = []string{"table3", "fig10", "fig11"}

const (
	testN     = 30_000
	testApps  = "media-streaming,web-search"
	testWidth = 2 // per-process pool width, workers and coordinator alike
)

func testSuiteConfig() Config {
	return Config{
		N:    testN,
		Apps: strings.Split(testApps, ","),
	}
}

// newTestGrid wires the full distributed fixture: a scratch store and a
// coordinator served from one httptest listener (the same one-URL layout
// acic-serve uses), and a coordinator-side Suite whose Remote is the
// coordinator and whose stores are the local view of the shared root.
func newTestGrid(t *testing.T, opts CoordinatorOptions) (*experiments.Suite, *Coordinator, string) {
	t.Helper()
	storeDir := t.TempDir()
	storeHandler, err := engine.NewStoreHandler(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(opts)
	t.Cleanup(coord.Close)
	mux := http.NewServeMux()
	mux.Handle("/api/", coord.Handler())
	mux.Handle("/", storeHandler)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	// The coordinator advertises the shared listener as the store.
	coord.cfg.StoreURL = srv.URL

	s := experiments.NewSuite(testN)
	s.Apps = strings.Split(testApps, ",")
	s.Workers = testWidth
	s.CacheDir = storeDir
	s.ArtifactDir = storeDir
	s.Remote = coord
	if err := s.CacheError(); err != nil {
		t.Fatal(err)
	}
	return s, coord, srv.URL
}

// waitLive blocks until a worker has claimed, so the render that follows
// routes through the coordinator instead of racing the first claim and
// running locally.
func waitLive(t *testing.T, coord *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !coord.Live() {
		if time.Now().After(deadline) {
			t.Fatal("no worker claimed within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// renderAll runs the test experiment subset and concatenates their
// printed output — the byte-identity unit the tests diff.
func renderAll(t *testing.T, s *experiments.Suite) string {
	t.Helper()
	return renderSlugs(t, s, testExperiments)
}

// renderSlugs renders the named experiments in registry order.
func renderSlugs(t *testing.T, s *experiments.Suite, slugs []string) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range experiments.Registry() {
		for _, want := range slugs {
			if e.Slug != want {
				continue
			}
			out, err := e.Run(s)
			if err != nil {
				// Errorf, not Fatalf: renderAll runs on background
				// goroutines in the requeue test, where Goexit would
				// strand the channel receive.
				t.Errorf("%s: %v", e.Slug, err)
				continue
			}
			fmt.Fprintf(&sb, "=== %s\n%s\n", e.Slug, out)
		}
	}
	return sb.String()
}

// localReference renders the subset on a plain single-process suite with
// the same configuration and no store at all.
func localReference(t *testing.T) string {
	t.Helper()
	s := experiments.NewSuite(testN)
	s.Apps = strings.Split(testApps, ",")
	s.Workers = testWidth
	return renderAll(t, s)
}

// TestDistributedByteIdentical is the tentpole invariant: the rendered
// output of a distributed run — 1, 2, and 4 workers, each a cold shared
// store — is byte-identical to single-process execution.
func TestDistributedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-lane simulation grids")
	}
	want := localReference(t)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, coord, url := newTestGrid(t, CoordinatorOptions{Config: testSuiteConfig(), Lease: 30 * time.Second})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					err := RunWorker(ctx, WorkerOptions{Coord: url, Workers: testWidth, Name: fmt.Sprintf("w%d", i)})
					if err != nil && ctx.Err() == nil {
						t.Errorf("worker %d: %v", i, err)
					}
				}(i)
			}
			waitLive(t, coord)
			got := renderAll(t, s)
			coord.Close() // workers see Done and exit
			wg.Wait()
			if got != want {
				t.Errorf("distributed output at %d workers differs from single-process\n--- got ---\n%s--- want ---\n%s", workers, got, want)
			}
			if st := coord.Stats(); st.Completed == 0 {
				t.Errorf("no cells completed remotely (stats %+v) — the grid ran locally", st)
			}
		})
	}
}

// TestDistributedVariantAndProbeCells: the Fig 15 variant cells, the
// eviction-training variants and the Fig 13 probe cells travel the Remote
// seam like any grid cell — workers simulate them, the coordinator reads
// results and probe tallies back from the shared store, and the rendered
// figures are byte-identical to local execution.
func TestDistributedVariantAndProbeCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	slugs := []string{"fig13", "fig15", "ext-evict-train"}
	local := experiments.NewSuite(testN)
	local.Apps = strings.Split(testApps, ",")
	local.Workers = testWidth
	want := renderSlugs(t, local, slugs)

	s, coord, url := newTestGrid(t, CoordinatorOptions{Config: testSuiteConfig(), Lease: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerOptions{Coord: url, Workers: testWidth, Name: fmt.Sprintf("w%d", i)})
			if err != nil && ctx.Err() == nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	waitLive(t, coord)
	got := renderSlugs(t, s, slugs)
	coord.Close()
	wg.Wait()
	if got != want {
		t.Errorf("distributed variant/probe output differs from local\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Per app: lru, acic, 10 Fig 15 variants, 2 eviction-training
	// variants and the admission probe — every one completed remotely,
	// none computed by the coordinator's suite.
	wantCells := int64(len(local.AppNames()) * 15)
	if st := coord.Stats(); st.Completed != wantCells || st.LocalFell != 0 {
		t.Errorf("coordinator stats %+v, want %d cells completed remotely and none local", st, wantCells)
	}
	if computed, _, _ := s.Stats(); computed != 0 {
		t.Errorf("coordinator suite computed %d cells locally", computed)
	}
}

// TestWorkerDeathRequeues pins the lease ladder: a worker that claims a
// batch and vanishes must not lose the work — the lease expires, the
// batch requeues under a fresh ID, a healthy worker finishes it, and the
// output is still byte-identical. The zombie's late completion (stale
// ID) must be ignored.
func TestWorkerDeathRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	s, coord, url := newTestGrid(t, CoordinatorOptions{Config: testSuiteConfig(), Lease: 300 * time.Millisecond})

	// The zombie's Want 0 heartbeat makes the coordinator live, so the
	// render routes its batches remotely.
	coord.Claim(ClaimRequest{Worker: "zombie"})
	waitLive(t, coord)

	// Render in the background; the grid blocks until workers (or the
	// ladder) produce every cell.
	outCh := make(chan string, 1)
	go func() { outCh <- renderAll(t, s) }()

	// The zombie steals one batch and never reports it.
	var zombie Batch
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := coord.Claim(ClaimRequest{Worker: "zombie", Want: 1})
		if len(resp.Batches) > 0 {
			zombie = resp.Batches[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no batch ever became claimable")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A healthy worker joins after the zombie's lease has begun.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(ctx, WorkerOptions{Coord: url, Workers: testWidth, Name: "healthy"}); err != nil && ctx.Err() == nil {
			t.Errorf("healthy worker: %v", err)
		}
	}()

	got := <-outCh
	// Late completion for the stale lease: must be a no-op, the cells
	// were already settled by the requeued copy.
	coord.Complete(CompleteRequest{Worker: "zombie", BatchID: zombie.ID,
		Results: []CellResult{{Cell: zombie.Cells[0]}}})
	coord.Close()
	wg.Wait()

	if want := localReference(t); got != want {
		t.Errorf("output after worker death differs from single-process\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if st := coord.Stats(); st.Requeued < 1 {
		t.Errorf("zombie batch was never requeued (stats %+v)", st)
	}
}

// TestNoWorkerFallsBackLocal pins the liveness rule with zero workers:
// no worker has ever claimed, so Require takes the local path without
// waiting — nothing is enqueued, and the output is the single-process
// bytes.
func TestNoWorkerFallsBackLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	s, coord, _ := newTestGrid(t, CoordinatorOptions{Config: testSuiteConfig()})
	got := renderAll(t, s)
	if want := localReference(t); got != want {
		t.Errorf("workerless output differs from single-process\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if st := coord.Stats(); st.Live || st.Batches != 0 {
		t.Errorf("workerless coordinator stats %+v, want not live and no batches", st)
	}
}

// TestQueuedWorkFailsBackWhenWorkersGoQuiet: work submitted while a
// worker was live, whose worker then stops claiming, fails transiently
// back to local execution once the liveness window lapses — it never
// waits on a worker pool that is gone.
func TestQueuedWorkFailsBackWhenWorkersGoQuiet(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Config: testSuiteConfig(), Lease: 100 * time.Millisecond})
	defer coord.Close()
	coord.Claim(ClaimRequest{Worker: "ghost"}) // one heartbeat, then silence
	if !coord.Live() {
		t.Fatal("coordinator not live right after a claim")
	}
	cell := experiments.Cell{App: "media-streaming", Scheme: "lru", Prefetcher: "fdp"}
	errs := make(chan error, 1)
	coord.Submit(cell.App, []experiments.Cell{cell}, func(_ experiments.Cell, err error) { errs <- err })
	select {
	case err := <-errs:
		if !engine.IsTransient(err) {
			t.Errorf("fail-back error %v is not transient", err)
		}
	case <-time.After(10 * liveWindow):
		t.Fatal("queued batch never failed back after the worker went quiet")
	}
	if st := coord.Stats(); st.Live || st.LocalFell != 1 || st.Claimed != 0 {
		t.Errorf("stats %+v, want not live, 1 cell fell back local, 0 claimed", st)
	}
}

// TestSubmitAfterCloseFailsBack: a batch submitted to a closed
// coordinator — a query racing the daemon's drain — runs locally
// instead of waiting on workers already told Done.
func TestSubmitAfterCloseFailsBack(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Config: testSuiteConfig()})
	coord.Close()
	cell := experiments.Cell{App: "media-streaming", Scheme: "lru", Prefetcher: "fdp"}
	errs := make(chan error, 1)
	coord.Submit(cell.App, []experiments.Cell{cell}, func(_ experiments.Cell, err error) { errs <- err })
	select {
	case err := <-errs:
		if !engine.IsTransient(err) {
			t.Errorf("fail-back error %v is not transient", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch submitted after Close never completed")
	}
}

// TestCloseFailsBackLeased: Close fails a batch a worker still holds
// back to local execution, so no cell waits on a report that can no
// longer arrive, and the worker's late report is ignored as stale.
func TestCloseFailsBackLeased(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Config: testSuiteConfig()})
	cell := experiments.Cell{App: "media-streaming", Scheme: "lru", Prefetcher: "fdp"}
	errs := make(chan error, 2)
	coord.Claim(ClaimRequest{Worker: "w"}) // live, so the batch waits for a claim
	coord.Submit(cell.App, []experiments.Cell{cell}, func(_ experiments.Cell, err error) { errs <- err })
	resp := coord.Claim(ClaimRequest{Worker: "w", Want: 1})
	if len(resp.Batches) != 1 {
		t.Fatalf("claim granted %d batches, want 1", len(resp.Batches))
	}
	coord.Close()
	select {
	case err := <-errs:
		if !engine.IsTransient(err) {
			t.Errorf("fail-back error %v is not transient", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leased batch never failed back after Close")
	}
	coord.Complete(CompleteRequest{Worker: "w", BatchID: resp.Batches[0].ID,
		Results: []CellResult{{Cell: cell.API()}}})
	select {
	case err := <-errs:
		t.Errorf("late report settled the cell a second time (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	if st := coord.Stats(); st.LocalFell != 1 || st.Completed != 0 {
		t.Errorf("stats %+v, want 1 cell fell back local and none completed", st)
	}
}

// TestNetErrFaultedRunStaysIdentical wires the net-err satellite end to
// end: with injected network faults hitting both the store client and the
// protocol client, the distributed run must still complete with output
// byte-identical to a fault-free single-process run — net-errs are
// absorbed as store misses and transient protocol retries.
func TestNetErrFaultedRunStaysIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	s, coord, url := newTestGrid(t, CoordinatorOptions{Config: testSuiteConfig(), Lease: 5 * time.Second})
	if err := faults.Install("net-err:p=0.05;seed=11"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faults.Install("") })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerOptions{Coord: url, Workers: testWidth, Name: fmt.Sprintf("w%d", i)})
			if err != nil && ctx.Err() == nil {
				// A worker may legitimately die when injected net-errs
				// exhaust its claim budget; the grid must survive it.
				t.Logf("worker %d gave up: %v", i, err)
			}
		}(i)
	}
	waitLive(t, coord)
	got := renderAll(t, s)
	coord.Close()
	wg.Wait()
	snap := faults.Snapshot()
	faults.Install("")

	if want := localReference(t); got != want {
		t.Errorf("net-err-faulted output differs from single-process\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if snap.NetErrs == 0 {
		t.Error("fault spec was installed but no net-err ever fired")
	}
}
