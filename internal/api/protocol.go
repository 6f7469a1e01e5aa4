package api

import "encoding/json"

// --- Coordinator/worker protocol (internal/distrib) ---

// WorkerConfig is the run configuration a coordinator advertises at
// GET /api/config: everything a stateless worker needs to build a Suite
// whose results are byte-identical to the coordinator's own.
type WorkerConfig struct {
	N            int      `json:"n"`
	Apps         []string `json:"apps,omitempty"`
	SampleSets   int      `json:"sample_sets,omitempty"`
	SampleOffset int      `json:"sample_offset,omitempty"`
	// StoreURL is the shared blob store every worker must point its
	// cache and artifact dirs at; empty means the coordinator serves the
	// store on its own listener, at the URL the worker reached it by.
	StoreURL string `json:"store_url,omitempty"`
}

// Batch is one leased unit of remote work: same-app cells sized to run
// as a single gang.
type Batch struct {
	ID    int64  `json:"id"`
	App   string `json:"app"`
	Cells []Cell `json:"cells"`
}

// ClaimRequest asks the coordinator for work, reporting the worker's
// instantaneous pool occupancy so steals are sized against real load.
type ClaimRequest struct {
	Worker  string `json:"worker"`
	Running int    `json:"running,omitempty"`
	Idle    int    `json:"idle,omitempty"`
	Queued  int    `json:"queued,omitempty"`
	Want    int    `json:"want,omitempty"`
}

// ClaimResponse carries zero or more leased batches. Done tells the
// worker the run is over; WaitMillis is the suggested poll backoff when
// no work was available.
type ClaimResponse struct {
	Batches    []Batch `json:"batches,omitempty"`
	Done       bool    `json:"done,omitempty"`
	WaitMillis int64   `json:"wait_millis,omitempty"`
}

// CellResult reports one cell's outcome within a completed batch. A nil
// Error means the result was published to the shared store; otherwise
// Error.Transient drives the coordinator's requeue-vs-fail decision.
type CellResult struct {
	Cell  Cell   `json:"cell"`
	Error *Error `json:"error,omitempty"`
}

// CompleteRequest reports a finished batch under the lease it was
// claimed with; stale BatchIDs (lease expired, batch requeued) are
// ignored by the coordinator.
type CompleteRequest struct {
	Worker  string       `json:"worker"`
	BatchID int64        `json:"batch_id"`
	Results []CellResult `json:"results"`
}

// DistribStats is the coordinator's liveness and scheduling snapshot:
// the distrib block of Stats.
type DistribStats struct {
	Live      bool  `json:"live"`       // a worker claimed within the liveness window
	Batches   int64 `json:"batches"`    // batches ever enqueued (including requeues)
	Claimed   int64 `json:"claimed"`    // batches handed to workers
	Completed int64 `json:"completed"`  // cells completed by workers (success or final error)
	Requeued  int64 `json:"requeued"`   // batches requeued after lease expiry or transient failure
	LocalFell int64 `json:"local_fell"` // cells failed back to the daemon's local ladder
}

// --- acic-serve query API ---

// CellOutcome is one grid cell's answer in a CellsResponse: the
// content-addressed cache key the result lives under, and either the
// raw result object or a typed error.
type CellOutcome struct {
	Cell   Cell            `json:"cell"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *Error          `json:"error,omitempty"`
}

// CellsResponse answers GET /v1/cells. ETag repeats the response ETag
// header so programmatic clients that strip headers keep it.
type CellsResponse struct {
	ETag  string        `json:"etag"`
	Cells []CellOutcome `json:"cells"`
}

// ExperimentInfo describes one registry entry at GET /v1/experiments.
type ExperimentInfo struct {
	Slug        string `json:"slug"`
	Description string `json:"description"`
}

// ExperimentsResponse answers GET /v1/experiments.
type ExperimentsResponse struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// Occupancy is a pool occupancy snapshot.
type Occupancy struct {
	Running int `json:"running"`
	Idle    int `json:"idle"`
	Queued  int `json:"queued"`
}

// GangStats summarizes gang packing since startup.
type GangStats struct {
	Gangs    int64 `json:"gangs"`
	Cells    int64 `json:"cells"`
	Mixed    int64 `json:"mixed"`
	MaxWidth int   `json:"max_width"`
	Window   int   `json:"window"`
}

// Stats answers GET /v1/stats: the serve daemon's configuration echo
// plus engine counters. Faults is the experiments.FaultStats object
// (kept raw here so this package stays import-free). Distrib is present
// when the daemon accepts workers (it has a result cache to share).
type Stats struct {
	Version           string          `json:"version"`
	N                 int             `json:"n"`
	Apps              []string        `json:"apps,omitempty"`
	SampleSets        int             `json:"sample_sets,omitempty"`
	GangSize          int             `json:"gang_size,omitempty"`
	Requests          int64           `json:"requests"`
	CellsComputed     int             `json:"cells_computed"`
	CellsFromCache    int             `json:"cells_from_cache"`
	WorkloadsPrepared int             `json:"workloads_prepared"`
	Occupancy         Occupancy       `json:"occupancy"`
	Gangs             GangStats       `json:"gangs"`
	Faults            json.RawMessage `json:"faults,omitempty"`
	BreakersOpen      int             `json:"breakers_open"`
	UptimeSeconds     float64         `json:"uptime_seconds"`
	Distrib           *DistribStats   `json:"distrib,omitempty"`
}
