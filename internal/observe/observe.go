// Package observe defines the event stream a learning run emits and the
// Observer interface consumers implement to watch it. The covering learner
// publishes one event per phase transition, covering-loop iteration,
// hill-climbing step and clause decision, so CLI tools, benchmarks and
// services can report progress without the learner printing anything itself.
//
// Observers are invoked synchronously from the learner goroutine; they must
// be fast and must not block. Implementations that aggregate across
// concurrent runs must be safe for concurrent use.
package observe

import "time"

// Phase names reported by PhaseDone events.
const (
	// PhaseBottomClauses is the construction of ground bottom clauses for
	// every training example (Section 4.1 of the paper).
	PhaseBottomClauses = "bottom-clauses"
	// PhaseCovering is the covering loop: seed selection, hill-climbing
	// generalization and acceptance testing (Algorithm 1).
	PhaseCovering = "covering"
)

// Event is one observation from a learning run. The concrete types below are
// the only implementations.
type Event interface{ isEvent() }

// RunStarted is emitted once, after the problem has been validated.
type RunStarted struct {
	// Target is the target relation name.
	Target string
	// Positives and Negatives are the training-set sizes.
	Positives, Negatives int
}

// PhaseDone is emitted when a named phase of the run completes.
type PhaseDone struct {
	// Phase is one of the Phase* constants.
	Phase string
	// Duration is the phase's wall-clock time.
	Duration time.Duration
}

// IterationStarted is emitted at the top of each covering-loop iteration.
type IterationStarted struct {
	// Iteration counts covering-loop iterations from 1.
	Iteration int
	// SeedIndex is the positive-example index used as the seed.
	SeedIndex int
	// Uncovered is the number of positive examples not yet covered.
	Uncovered int
}

// CoverageProgress is emitted after each hill-climbing step with the running
// candidate count and the best score found so far in this iteration.
type CoverageProgress struct {
	Iteration int
	// ClausesConsidered is the cumulative number of candidates scored.
	ClausesConsidered int
	// BestPositives and BestNegatives are the coverage counts of the current
	// best candidate of this iteration.
	BestPositives, BestNegatives int
}

// CandidateBatchScored is emitted after the candidate scheduler scores one
// hill-climbing step's refinement sample: the independent candidate clauses
// were scored concurrently (the outer tier), each batch running on the
// evaluator's example worker pool (the inner tier), sharing the incumbent
// floor so losing candidates exit early.
type CandidateBatchScored struct {
	Iteration int
	// Candidates is the number of candidate clauses in the batch.
	Candidates int
	// Parallelism is the outer-tier worker count the scheduler used.
	Parallelism int
	// EarlyExited is how many candidates were pruned mid-batch by the shared
	// floor (non-exact results).
	EarlyExited int
	// Improved reports whether some candidate beat the incumbent.
	Improved bool
	// Probes is the number of θ-subsumption probes the batch issued, and
	// SearchNodes the backtracking-search nodes they explored; PlannedProbes
	// is how many of the probes the literal planner ordered (probes rejected
	// before the search carry no plan). Together they are the per-batch view
	// of the evaluator's plan telemetry.
	Probes        int64
	SearchNodes   int64
	PlannedProbes int64
}

// ClauseAccepted is emitted when an iteration's best clause passes the
// acceptance test and joins the definition.
type ClauseAccepted struct {
	Iteration int
	// Clause is the accepted clause, rendered.
	Clause string
	// Positives and Negatives are the clause's coverage over the full
	// training set.
	Positives, Negatives int
	// Uncovered is the number of positive examples still uncovered after
	// accepting the clause.
	Uncovered int
}

// ClauseRejected is emitted when an iteration's best clause fails the
// acceptance test; its seed example is abandoned.
type ClauseRejected struct {
	Iteration int
	// Clause is the rejected clause, rendered.
	Clause string
	// Positives and Negatives are the clause's coverage over the full
	// training set.
	Positives, Negatives int
}

// SnapshotHit is emitted when the prepared training examples were served
// from the configured snapshot store instead of being prepared fresh.
type SnapshotHit struct {
	// Key is the snapshot's content address in hex.
	Key string
	// Examples is the number of prepared examples restored (positives plus
	// negatives).
	Examples int
	// Bytes is the snapshot size on disk.
	Bytes int
	// Duration is the time spent loading, decoding and restoring.
	Duration time.Duration
}

// SnapshotMiss is emitted when a configured snapshot store could not serve
// the prepared examples and they were prepared fresh.
type SnapshotMiss struct {
	// Key is the snapshot's content address in hex.
	Key string
	// Reason explains the miss: "not found" on a cold start, a decode error
	// for a corrupted or incompatible snapshot, or "stale examples" when
	// the stored set does not match the requested ground clauses.
	Reason string
	// Duration is the time spent preparing the examples fresh.
	Duration time.Duration
}

// SnapshotWriteFailed is emitted after a miss when writing the freshly
// prepared examples back to the store failed. The run itself proceeds on
// the fresh preparation, but every later run will miss too — surfacing the
// error is what makes an unwritable snapshot directory diagnosable instead
// of a silent permanent cold start.
type SnapshotWriteFailed struct {
	// Key is the snapshot's content address in hex.
	Key string
	// Error is the rendered write error.
	Error string
}

// SnapshotWritten is emitted after a miss once the freshly prepared
// examples have been written back to the store.
type SnapshotWritten struct {
	// Key is the snapshot's content address in hex.
	Key string
	// Examples is the number of prepared examples written.
	Examples int
	// Bytes is the encoded snapshot size.
	Bytes int
	// Duration is the time spent encoding and saving.
	Duration time.Duration
}

// ResultCacheHit is emitted by dlearn-serve when a job's completed result
// was served from the server's result cache instead of running the engine:
// an identical problem with identical definition-affecting options has
// already been learned, so the cached definition is returned byte-identical
// and instantly. The engine itself never emits this event.
type ResultCacheHit struct {
	// Key is the result's content address in hex (the snapshot fingerprint
	// extended with the remaining definition-affecting options).
	Key string
	// Bytes is the cached result's encoded size.
	Bytes int
}

// PersistenceDegraded is emitted by dlearn-serve when a persistence write
// on a job's behalf failed and the server downgraded to best-effort
// in-memory operation instead of failing the job: the job keeps running
// (or stays completed) but would not survive a restart the way a fully
// journalled job does. The engine itself never emits this event.
type PersistenceDegraded struct {
	// Component names what degraded: "journal" (the job's durability
	// record) or "snapshot" (the shared prepared-example store).
	Component string
	// Detail is the rendered write error.
	Detail string
}

// RunFinished is emitted once, just before Learn returns successfully.
type RunFinished struct {
	// Clauses is the size of the learned definition.
	Clauses int
	// ClausesConsidered is the total number of candidates scored.
	ClausesConsidered int
	// UncoveredPositives is the number of positive examples the definition
	// does not cover.
	UncoveredPositives int
	// ExhaustedProbes and TruncatedExpansions are the run's conservative
	// coverage answers: θ-subsumption probes that hit the node budget, and
	// repaired-clause expansions the repair budget cut short (see the
	// fields of the same names on core.Report).
	ExhaustedProbes     int64
	TruncatedExpansions int64
	// Duration is the whole run's wall-clock time.
	Duration time.Duration
}

func (RunStarted) isEvent()           {}
func (PhaseDone) isEvent()            {}
func (IterationStarted) isEvent()     {}
func (CoverageProgress) isEvent()     {}
func (CandidateBatchScored) isEvent() {}
func (ClauseAccepted) isEvent()       {}
func (ClauseRejected) isEvent()       {}
func (SnapshotHit) isEvent()          {}
func (SnapshotMiss) isEvent()         {}
func (SnapshotWritten) isEvent()      {}
func (SnapshotWriteFailed) isEvent()  {}
func (ResultCacheHit) isEvent()       {}
func (PersistenceDegraded) isEvent()  {}
func (RunFinished) isEvent()          {}

// Observer receives the events of a learning run.
type Observer interface {
	Observe(Event)
}

// Func adapts a function to the Observer interface.
type Func func(Event)

// Observe calls f.
func (f Func) Observe(e Event) { f(e) }

// Discard is an Observer that drops every event.
var Discard Observer = Func(func(Event) {})

// multi fans one event stream out to several observers in order.
type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Multi combines observers into one that forwards every event to each of
// them in order. Nil observers are skipped; Multi() returns Discard.
func Multi(obs ...Observer) Observer {
	var out multi
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		return Discard
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}
