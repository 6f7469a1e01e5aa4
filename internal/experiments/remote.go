package experiments

import "acic/internal/experiments/engine"

// Remote is the seam between a Suite and a distributed executor (the
// coordinator acic-serve hosts for acic-worker processes). While Live
// reports true, Require routes each batch's not-yet-planned cells here
// instead of the local gang scheduler; otherwise the batch takes the
// local path unchanged, so a Remote nobody serves costs nothing. Submit
// receives one same-app group at a time — the steal unit, sized so a
// worker can run it as a single gang and keep the one-traversal-many-
// schemes win — and must arrange for done to be called exactly once per
// cell, from any goroutine, without blocking inside Submit itself.
//
// The error passed to done drives the suite's ladder exactly like the
// local transient/deterministic split (DESIGN.md §13): nil means the cell's result was published to the shared
// store (the suite loads it from there); a transient error (worker death,
// injected fault, requeue budget exhausted) falls back to computing the
// cell locally; a deterministic error fails just the figures needing the
// cell.
type Remote interface {
	Live() bool
	Submit(app string, cells []Cell, done func(c Cell, err error))
}

// submitRemote claims the batch's not-yet-planned cells and hands them to
// the Remote in same-app chunks of at most GangMaxWidth cells (one full
// gang each, so a wide grid still spreads across workers), in
// first-appearance order. Cells the shared store already holds are
// completed immediately — the coordinator never ships work whose result
// exists. Cells claimed here are completed by remoteDone on every path;
// the results.Require that follows only waits on them.
func (s *Suite) submitRemote(cells []Cell) {
	claimed := make(map[string][]Cell)
	var order []string
	for _, c := range cells {
		if !s.results.TryClaim(c) {
			continue // computed, in flight, or a duplicate within the batch
		}
		if s.results.TryCache(c) {
			continue // warm store: completed without shipping
		}
		if _, ok := claimed[c.App]; !ok {
			order = append(order, c.App)
		}
		claimed[c.App] = append(claimed[c.App], c)
	}
	for _, app := range order {
		group := claimed[app]
		parts := (len(group) + GangMaxWidth - 1) / GangMaxWidth
		for _, unit := range splitBalanced(group, parts) {
			s.Remote.Submit(app, unit, s.remoteDone)
		}
	}
}

// remoteDone completes one remotely executed cell. Success means the
// worker published the result to the shared store; loading it through
// TryCache is what makes distributed output byte-identical — the bytes
// the renderer sees round-tripped the same content-addressed entry a
// warm local run would read. A success whose entry cannot be loaded
// (store lost the write, injected net-err on our side) and any transient
// failure fall back to the local serial ladder, which keeps the run live
// even with zero healthy workers; a deterministic failure is recorded
// as the cell's typed error without wasting a local rerun.
func (s *Suite) remoteDone(c Cell, err error) {
	switch {
	case err == nil:
		if s.results.TryCache(c) {
			return
		}
		s.rerunSerial(c)
	case engine.IsTransient(err):
		s.rerunSerial(c)
	default:
		s.results.Fulfill(c, CellResult{}, err)
	}
}

// Forget drops a completed cell from the suite's memo so the next demand
// recomputes it (see engine.Group.Forget), along with any transiently
// failed prepare stage for the cell's app — the transient failure may
// live in the pipeline memo rather than the cell compute, and a retry
// that re-runs only the cell would replay the poisoned stage forever.
// The distributed worker and acic-serve call it after a transient cell
// failure so the requeue/re-query re-runs the simulation instead of
// replaying the memoized error.
func (s *Suite) Forget(c Cell) bool {
	s.init()
	dropped := s.results.Forget(c)
	return s.pipeline.ForgetTransient(c.App) || dropped
}

// ForgetTransient sweeps every transiently failed memo — result cells
// and prepare stages alike — so the next demand recomputes them.
// acic-serve calls it when a figure render fails transiently: the
// render spans many cells and any of them may hold the memoized fault.
func (s *Suite) ForgetTransient() int {
	s.init()
	return s.results.ForgetAllTransient() + s.pipeline.ForgetAllTransient()
}

// Occupancy reports the suite pool's instantaneous occupancy snapshot —
// running tasks, free slots, and submitters blocked waiting for a slot.
// The distributed worker sends it with every claim so the coordinator
// sizes steals against real load instead of guessing.
func (s *Suite) Occupancy() (running, idle, queued int) {
	s.init()
	return s.pool.Running(), s.pool.Idle(), s.pool.Queued()
}
