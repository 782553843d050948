package dlearn

import (
	"dlearn/internal/bottomclause"
	"dlearn/internal/observe"
	"dlearn/internal/repair"
)

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithConfig replaces the engine's whole configuration. It composes with
// later options, so it can serve as a base that further With* calls refine.
func WithConfig(cfg Config) Option {
	return func(e *Engine) { e.cfg = cfg }
}

// WithThreads sets the worker-pool size used for parallel coverage testing
// (the paper's experiments use 16).
func WithThreads(n int) Option {
	return func(e *Engine) { e.cfg.Threads = n }
}

// WithSeed sets the seed that drives every random choice of a run (seed
// selection, candidate sampling, bottom-clause tuple sampling). Runs are
// fully deterministic given the seed — there is no wall-clock fallback.
func WithSeed(seed int64) Option {
	return func(e *Engine) {
		e.cfg.Seed = seed
		e.cfg.BottomClause.Seed = seed
	}
}

// WithCandidateParallelism sets the outer tier of the two-tier coverage
// scheduler: how many independent candidate clauses of a refinement sample
// are scored concurrently. Each in-flight candidate runs its example batch
// on the inner WithThreads pool, so the two tiers keep roughly
// threads × parallelism coverage tests in flight — the lever that keeps a
// 16-thread machine busy when the example pool is small. The learned
// definition is identical for every value: the scheduler's shared floor only
// prunes candidates that provably cannot win. Zero selects the default (4).
func WithCandidateParallelism(n int) Option {
	return func(e *Engine) { e.cfg.CandidateParallelism = n }
}

// WithEvalCacheShards sets the number of lock stripes in the coverage
// evaluator's probe memo (one compiled candidate, CFD projection and repair
// expansion per clause). The value is rounded up to a power of two; more
// stripes reduce contention between coverage workers. Zero selects the
// default (16, matching the paper's 16-way parallel coverage testing).
func WithEvalCacheShards(n int) Option {
	return func(e *Engine) { e.cfg.EvalCacheShards = n }
}

// WithNoiseTolerance sets the maximum fraction of covered examples that may
// be negative for a clause to be accepted (the paper's noise parameter).
func WithNoiseTolerance(f float64) Option {
	return func(e *Engine) { e.cfg.MaxNegativeFraction = f }
}

// WithMaxClauses bounds the number of clauses in a learned definition.
func WithMaxClauses(n int) Option {
	return func(e *Engine) { e.cfg.MaxClauses = n }
}

// WithMinPositiveCoverage sets the minimum number of positive training
// examples a clause must cover to be accepted.
func WithMinPositiveCoverage(n int) Option {
	return func(e *Engine) { e.cfg.MinPositiveCoverage = n }
}

// WithGeneralizationSample sets |E+_s|, the number of uncovered positive
// examples sampled to produce candidate generalizations per step.
func WithGeneralizationSample(n int) Option {
	return func(e *Engine) { e.cfg.GeneralizationSample = n }
}

// WithNegativeSearchSample caps how many negative examples score candidates
// during hill climbing: the first n in example order, not a random sample
// (the acceptance test always uses all of them). Zero means all negatives.
func WithNegativeSearchSample(n int) Option {
	return func(e *Engine) { e.cfg.NegativeSearchSample = n }
}

// WithSubsumptionBudget caps the number of nodes each θ-subsumption search
// may explore. Exhausting the budget reports "does not subsume", which only
// makes coverage estimates conservative.
func WithSubsumptionBudget(maxNodes int) Option {
	return func(e *Engine) { e.cfg.Subsumption.MaxNodes = maxNodes }
}

// WithRepairBudget bounds repaired-clause expansion during coverage testing:
// at most maxClauses distinct repaired clauses per clause, exploring at most
// maxStates intermediate states.
func WithRepairBudget(maxClauses, maxStates int) Option {
	return func(e *Engine) { e.cfg.Repair = repair.Options{MaxClauses: maxClauses, MaxStates: maxStates} }
}

// WithIterations sets d, the number of bottom-clause expansion rounds of
// Algorithm 2 (the paper uses 3–5 depending on the dataset).
func WithIterations(d int) Option {
	return func(e *Engine) { e.cfg.BottomClause.Iterations = d }
}

// WithSampleSize caps the tuples added to a bottom clause per relation.
// Zero means no cap.
func WithSampleSize(n int) Option {
	return func(e *Engine) { e.cfg.BottomClause.SampleSize = n }
}

// WithTopMatches sets k_m, the number of top similarity matches considered
// per probe value during bottom-clause construction.
func WithTopMatches(km int) Option {
	return func(e *Engine) { e.cfg.BottomClause.KM = km }
}

// WithSimilarityThreshold sets the minimum combined similarity for two
// values to be considered approximately equal.
func WithSimilarityThreshold(t float64) Option {
	return func(e *Engine) { e.cfg.BottomClause.SimilarityThreshold = t }
}

// WithMDMode selects how matching dependencies are used while collecting
// relevant tuples (MDSimilarity is DLearn; MDExact and MDIgnore are the
// Castor baselines).
func WithMDMode(m MDMode) Option {
	return func(e *Engine) { e.cfg.BottomClause.MDMode = m }
}

// WithCFDRepairs toggles CFD repair literals in bottom clauses (DLearn-CFD
// vs plain DLearn).
func WithCFDRepairs(enabled bool) Option {
	return func(e *Engine) { e.cfg.BottomClause.UseCFDs = enabled }
}

// WithBottomClause replaces the whole bottom-clause construction
// configuration for callers that need full control.
func WithBottomClause(cfg BottomClauseConfig) Option {
	return func(e *Engine) { e.cfg.BottomClause = cfg }
}

// WithSnapshotStore persists prepared training examples across runs in the
// given store. Learn serves the preparation phase from the store when a
// snapshot exists for the problem-and-configuration fingerprint and writes
// one back after preparing fresh otherwise; hits, misses and writes are
// reported through the observer (SnapshotHit, SnapshotMiss,
// SnapshotWritten). A nil store disables persistence.
func WithSnapshotStore(store SnapshotStore) Option {
	return func(e *Engine) { e.cfg.SnapshotStore = store }
}

// WithSnapshotDir is WithSnapshotStore over a filesystem directory: one
// snapshot file per content-addressed key, created on first write. An empty
// dir disables persistence.
func WithSnapshotDir(dir string) Option {
	return func(e *Engine) {
		if dir == "" {
			e.cfg.SnapshotStore = nil
			return
		}
		e.cfg.SnapshotStore = NewDirSnapshotStore(dir)
	}
}

// WithObserver registers an observer for the engine's learning runs. Passing
// several observers (or using the option repeatedly) fans events out to all
// of them in order.
func WithObserver(obs ...Observer) Option {
	return func(e *Engine) {
		all := append([]Observer{e.cfg.Observer}, obs...)
		e.cfg.Observer = observe.Multi(all...)
	}
}

// MDMode selects how matching dependencies are used while collecting
// relevant tuples; see the MD* constants.
type MDMode = bottomclause.MDMode

// The MD usage modes.
const (
	// MDIgnore ignores MDs entirely (the Castor-NoMD baseline).
	MDIgnore = bottomclause.MDIgnore
	// MDExact uses MDs only as exact joins (the Castor-Exact baseline).
	MDExact = bottomclause.MDExact
	// MDSimilarity performs top-k_m similarity search along MDs and adds
	// similarity and repair literals (DLearn).
	MDSimilarity = bottomclause.MDSimilarity
)

// BottomClauseConfig controls bottom-clause construction (d, sample size,
// k_m, MD mode, CFD usage).
type BottomClauseConfig = bottomclause.Config

// DefaultBottomClauseConfig mirrors the paper's bottom-clause defaults.
func DefaultBottomClauseConfig() BottomClauseConfig { return bottomclause.DefaultConfig() }
