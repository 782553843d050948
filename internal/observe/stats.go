package observe

import "sync/atomic"

// SchedulerStats aggregates CandidateBatchScored events into the candidate
// scheduler's cross-run telemetry: how many batches ran, how many candidates
// they scored and how many of those the shared incumbent floor pruned
// mid-batch. The early-exit rate is the fraction of scored candidates that
// exited early — the measure of how much work the floor saves on real
// learning runs rather than micro-benchmarks.
//
// A SchedulerStats is an Observer; it is safe for concurrent use and may be
// shared across many concurrent learning runs (dlearn-serve registers one
// aggregator on every job's engine and exposes the totals in /v1/stats).
type SchedulerStats struct {
	batches     atomic.Int64
	candidates  atomic.Int64
	earlyExited atomic.Int64
	improved    atomic.Int64
}

// NewSchedulerStats returns an empty aggregator.
func NewSchedulerStats() *SchedulerStats { return &SchedulerStats{} }

// Observe accumulates one event; events other than CandidateBatchScored are
// ignored.
func (s *SchedulerStats) Observe(e Event) {
	ev, ok := e.(CandidateBatchScored)
	if !ok {
		return
	}
	s.batches.Add(1)
	s.candidates.Add(int64(ev.Candidates))
	s.earlyExited.Add(int64(ev.EarlyExited))
	if ev.Improved {
		s.improved.Add(1)
	}
}

// SchedulerSnapshot is a point-in-time copy of the aggregated counters.
type SchedulerSnapshot struct {
	// Batches is the number of candidate batches the scheduler ran.
	Batches int64
	// Candidates is the total number of candidate clauses scored.
	Candidates int64
	// EarlyExited is how many of those candidates the shared floor pruned
	// mid-batch.
	EarlyExited int64
	// Improved is the number of batches whose best candidate beat the
	// incumbent.
	Improved int64
	// EarlyExitRate is EarlyExited / Candidates, zero when no candidates
	// were scored yet.
	EarlyExitRate float64
}

// Snapshot returns the current totals. Concurrent Observe calls may land
// between the individual counter reads; the snapshot is a telemetry view,
// not a transactional one.
func (s *SchedulerStats) Snapshot() SchedulerSnapshot {
	snap := SchedulerSnapshot{
		Batches:     s.batches.Load(),
		Candidates:  s.candidates.Load(),
		EarlyExited: s.earlyExited.Load(),
		Improved:    s.improved.Load(),
	}
	if snap.Candidates > 0 {
		snap.EarlyExitRate = float64(snap.EarlyExited) / float64(snap.Candidates)
	}
	return snap
}
