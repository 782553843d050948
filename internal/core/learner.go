// Package core implements DLearn's top-level learning algorithm: the
// covering loop of Algorithm 1 with the bottom-clause construction of
// Section 4.1, the generalization of Section 4.2 and the coverage semantics
// of Section 4.3. It also defines the learning problem and configuration
// shared by the baselines.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dlearn/internal/bottomclause"
	"dlearn/internal/constraints"
	"dlearn/internal/coverage"
	"dlearn/internal/generalize"
	"dlearn/internal/logic"
	"dlearn/internal/observe"
	"dlearn/internal/persist"
	"dlearn/internal/relation"
	"dlearn/internal/repair"
	"dlearn/internal/subsumption"
)

// Problem is one relational learning task: a database instance with its
// declarative constraints, a target relation, and labelled training
// examples (tuples of the target relation).
type Problem struct {
	Instance *relation.Instance
	Target   *relation.Relation
	MDs      []constraints.MD
	CFDs     []constraints.CFD
	Pos      []relation.Tuple
	Neg      []relation.Tuple
}

// Validate checks the problem is well formed.
func (p *Problem) Validate() error {
	if p.Instance == nil || p.Target == nil {
		return fmt.Errorf("core: problem needs an instance and a target relation")
	}
	if len(p.Pos) == 0 {
		return fmt.Errorf("core: problem has no positive examples")
	}
	schema := p.Instance.Schema()
	// MDs may reference the target relation; validate against a schema that
	// includes it.
	extended := relation.NewSchema()
	for _, r := range schema.Relations() {
		extended.MustAdd(r)
	}
	if !extended.Has(p.Target.Name) {
		extended.MustAdd(p.Target)
	}
	if err := constraints.ValidateMDs(extended, p.MDs); err != nil {
		return err
	}
	if err := constraints.ValidateCFDs(schema, p.CFDs); err != nil {
		return err
	}
	if !constraints.ConsistentCFDs(schema, p.CFDs) {
		return fmt.Errorf("core: the CFD set is inconsistent")
	}
	for _, e := range append(append([]relation.Tuple{}, p.Pos...), p.Neg...) {
		if e.Relation != p.Target.Name {
			return fmt.Errorf("core: example %s is not a tuple of the target relation %s", e, p.Target.Name)
		}
		if len(e.Values) != p.Target.Arity() {
			return fmt.Errorf("core: example %s has wrong arity for target %s", e, p.Target)
		}
	}
	return nil
}

// Config controls the learner.
type Config struct {
	// BottomClause configures bottom-clause construction (d, sample size,
	// k_m, MD mode, CFD usage).
	BottomClause bottomclause.Config
	// GeneralizationSample is |E+_s|: how many uncovered positive examples
	// are used to produce candidate generalizations in each step.
	GeneralizationSample int
	// NegativeSearchSample caps how many negative examples are used to score
	// candidate clauses during the hill-climbing search: the first n in
	// example order, not a random sample (the acceptance test always uses
	// all of them). Zero means all negatives.
	NegativeSearchSample int
	// MinPositiveCoverage is the minimum number of positive training
	// examples a clause must cover to be added to the definition.
	MinPositiveCoverage int
	// MaxNegativeFraction is the maximum fraction of covered examples that
	// may be negative for a clause to be accepted (noise tolerance).
	MaxNegativeFraction float64
	// MaxClauses bounds the number of clauses in the learned definition.
	MaxClauses int
	// Threads is the worker-pool size for coverage testing.
	Threads int
	// CandidateParallelism is the outer tier of the two-tier coverage
	// scheduler: how many independent candidate clauses of a refinement
	// sample are scored concurrently, each batch running on the inner
	// Threads pool. Zero means coverage.DefaultCandidateParallelism. The
	// learned definition is identical for every value (the scheduler's
	// shared floor only prunes candidates that provably lose).
	CandidateParallelism int
	// EvalCacheShards is the number of lock stripes in the coverage
	// evaluator's probe memo. Zero means coverage.DefaultCacheShards.
	EvalCacheShards int
	// Seed drives every random choice (seed selection, candidate sampling,
	// and — unless BottomClause.Seed is set explicitly — bottom-clause
	// tuple sampling). There is no fallback to wall-clock seeding: two runs
	// with the same Seed over the same problem produce identical
	// definitions.
	Seed int64
	// Subsumption bounds each θ-subsumption search.
	Subsumption subsumption.Options
	// Repair bounds repaired-clause expansion during coverage testing.
	Repair repair.Options
	// Observer receives progress events during learning; nil discards them.
	Observer observe.Observer
	// SnapshotStore, when non-nil, persists prepared training examples
	// across runs: preparation is served from the store when a snapshot
	// exists for this problem-and-configuration fingerprint and written
	// back after a fresh preparation otherwise. Nil disables persistence.
	SnapshotStore persist.Store
}

// DefaultConfig mirrors the paper's experimental setup (sample size 10,
// 16-thread coverage testing) with conservative defaults elsewhere.
func DefaultConfig() Config {
	return Config{
		BottomClause:         bottomclause.DefaultConfig(),
		GeneralizationSample: 10,
		NegativeSearchSample: 32,
		MinPositiveCoverage:  2,
		MaxNegativeFraction:  0.3,
		MaxClauses:           12,
		Threads:              16,
		CandidateParallelism: coverage.DefaultCandidateParallelism,
		Seed:                 1,
		Subsumption:          subsumption.Options{MaxNodes: 20000},
		Repair:               repair.Options{MaxClauses: 16, MaxStates: 512},
	}
}

// SnapshotFingerprint assembles the snapshot-store fingerprint of a problem
// under a configuration. It is the single source of truth for what keys a
// prepared-example snapshot: every tool that writes or reads snapshots for
// the same effective run (the learner, the bench harness) must build its
// key through this function, or identical inputs hash to different keys.
// It applies the same normalization NewLearner does (BottomClause.Seed
// inherits Seed when unset), so a caller passing a raw Config and the
// learner running its normalized copy agree.
func SnapshotFingerprint(p Problem, cfg Config) persist.FingerprintInputs {
	if cfg.BottomClause.Seed == 0 {
		cfg.BottomClause.Seed = cfg.Seed
	}
	return persist.FingerprintInputs{
		Instance:     p.Instance,
		Target:       p.Target,
		MDs:          p.MDs,
		CFDs:         p.CFDs,
		Pos:          p.Pos,
		Neg:          p.Neg,
		BottomClause: cfg.BottomClause,
		Subsumption:  cfg.Subsumption,
		Repair:       cfg.Repair,
		Noise:        cfg.MaxNegativeFraction,
	}
}

// ResultKey is the content address of a completed learning run: the
// snapshot fingerprint (problem plus preparation options) extended with the
// remaining configuration fields that influence which definition the
// covering search returns — the run seed, the generalization and
// negative-search samples, the minimum positive coverage and the clause cap.
// Two (problem, config) pairs share a result key exactly when Engine.Learn
// is guaranteed to return byte-identical definitions; parallelism settings
// (Threads, CandidateParallelism, EvalCacheShards) are deliberately excluded
// because the two-tier scheduler pins definitions identical across them, as
// are Observer and SnapshotStore, which never influence the result.
// dlearn-serve keys its result cache with this.
func ResultKey(p Problem, cfg Config) persist.Key {
	cfg = normalizeConfig(cfg)
	return persist.ResultFingerprintInputs{
		Snapshot:             SnapshotFingerprint(p, cfg).Key(),
		Seed:                 cfg.Seed,
		GeneralizationSample: cfg.GeneralizationSample,
		NegativeSearchSample: cfg.NegativeSearchSample,
		MinPositiveCoverage:  cfg.MinPositiveCoverage,
		MaxClauses:           cfg.MaxClauses,
	}.Key()
}

// Report summarizes a learning run.
type Report struct {
	// Duration is the wall-clock learning time.
	Duration time.Duration
	// BottomClauseTime is the time spent constructing ground bottom clauses
	// for the training examples and preparing them for coverage testing
	// (loading them from the snapshot store on a warm start).
	BottomClauseTime time.Duration
	// SnapshotHit reports whether the prepared examples were served from
	// the configured snapshot store; always false without a store.
	SnapshotHit bool
	// PrepareTime is the time spent preparing examples fresh (zero on a
	// snapshot hit).
	PrepareTime time.Duration
	// SnapshotLoadTime is the time spent loading and restoring the
	// prepared examples from the snapshot store (zero without a store).
	SnapshotLoadTime time.Duration
	// ClausesConsidered counts candidate clauses scored during the search.
	ClausesConsidered int
	// SeedsTried counts how many positive examples served as seeds.
	SeedsTried int
	// UncoveredPositives is the number of positive examples the final
	// definition does not cover.
	UncoveredPositives int
	// ExhaustedProbes counts the run's θ-subsumption probes that hit the
	// node budget (Config.Subsumption.MaxNodes): each answered "does not
	// subsume" conservatively, which may have changed a coverage count.
	ExhaustedProbes int64
	// TruncatedExpansions counts the run's repaired-clause expansions that
	// the repair budget (Config.Repair.MaxStates or MaxClauses) cut short:
	// each left a coverage test an incomplete set of repaired clauses.
	// Examples loaded from the snapshot store are not expanded again and
	// count nothing, so a warm start counts only candidate expansions.
	TruncatedExpansions int64
}

// Learner runs DLearn (or, with the appropriate configuration, one of the
// Castor-style baselines) on a Problem. A Learner holds no per-run state:
// the same Learner may run many problems, concurrently or in sequence, and
// every run is deterministic given the problem and the configured Seed.
type Learner struct {
	cfg Config
	obs observe.Observer
}

// normalizeConfig applies the zero-value defaulting NewLearner performs, so
// every consumer of a Config — the learner itself, SnapshotFingerprint,
// ResultKey — agrees on the effective values. A caller passing a raw Config
// and the learner running its normalized copy must hash identically.
func normalizeConfig(cfg Config) Config {
	if cfg.GeneralizationSample <= 0 {
		cfg.GeneralizationSample = DefaultConfig().GeneralizationSample
	}
	if cfg.MinPositiveCoverage <= 0 {
		cfg.MinPositiveCoverage = 1
	}
	if cfg.MaxClauses <= 0 {
		cfg.MaxClauses = DefaultConfig().MaxClauses
	}
	if cfg.Threads <= 0 {
		cfg.Threads = DefaultConfig().Threads
	}
	if cfg.CandidateParallelism <= 0 {
		cfg.CandidateParallelism = coverage.DefaultCandidateParallelism
	}
	if cfg.MaxNegativeFraction <= 0 {
		cfg.MaxNegativeFraction = DefaultConfig().MaxNegativeFraction
	}
	if cfg.BottomClause.Seed == 0 {
		// Keep the whole run on one seed unless the caller pinned the
		// bottom-clause sampling seed separately.
		cfg.BottomClause.Seed = cfg.Seed
	}
	return cfg
}

// NewLearner builds a learner with the given configuration.
func NewLearner(cfg Config) *Learner {
	cfg = normalizeConfig(cfg)
	obs := cfg.Observer
	if obs == nil {
		obs = observe.Discard
	}
	return &Learner{cfg: cfg, obs: obs}
}

// Config returns the learner configuration.
func (l *Learner) Config() Config { return l.cfg }

// LearnContext runs the covering algorithm and returns the learned
// definition. The context is checked between covering iterations, between
// hill-climbing steps, inside the parallel coverage worker pool and inside
// each θ-subsumption search, so cancellation interrupts even a single
// long-running coverage test; a cancelled run returns ctx.Err().
func (l *Learner) LearnContext(ctx context.Context, p Problem) (*logic.Definition, *Report, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	report := &Report{}
	l.obs.Observe(observe.RunStarted{Target: p.Target.Name, Positives: len(p.Pos), Negatives: len(p.Neg)})

	builder := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, l.cfg.BottomClause)
	eval := coverage.NewEvaluator(coverage.Options{
		Subsumption:          l.cfg.Subsumption,
		Repair:               l.cfg.Repair,
		Threads:              l.cfg.Threads,
		CandidateParallelism: l.cfg.CandidateParallelism,
		CacheShards:          l.cfg.EvalCacheShards,
	})
	rng := rand.New(rand.NewSource(l.cfg.Seed))

	// Precompute ground bottom clauses for every training example and
	// prepare them for repeated coverage tests (Section 4.3).
	bcStart := time.Now()
	posGround, err := l.groundAll(ctx, builder, p.Pos)
	if err != nil {
		return nil, nil, err
	}
	negGround, err := l.groundAll(ctx, builder, p.Neg)
	if err != nil {
		return nil, nil, err
	}
	var key persist.Key
	if l.cfg.SnapshotStore != nil {
		key = SnapshotFingerprint(p, l.cfg).Key()
	}
	posEx, negEx, snap, err := eval.LoadOrPrepareExamples(ctx, l.cfg.SnapshotStore, key, posGround, negGround)
	if err != nil {
		return nil, nil, err
	}
	report.SnapshotHit = snap.Hit
	report.PrepareTime = snap.PrepareTime
	report.SnapshotLoadTime = snap.LoadTime
	if l.cfg.SnapshotStore != nil {
		if snap.Hit {
			l.obs.Observe(observe.SnapshotHit{
				Key:      key.String(),
				Examples: len(posEx) + len(negEx),
				Bytes:    snap.Bytes,
				Duration: snap.LoadTime,
			})
		} else {
			l.obs.Observe(observe.SnapshotMiss{Key: key.String(), Reason: snap.Reason, Duration: snap.PrepareTime})
			if snap.WriteErr != nil {
				l.obs.Observe(observe.SnapshotWriteFailed{Key: key.String(), Error: snap.WriteErr.Error()})
			} else {
				l.obs.Observe(observe.SnapshotWritten{
					Key:      key.String(),
					Examples: len(posEx) + len(negEx),
					Bytes:    snap.Bytes,
					Duration: snap.WriteTime,
				})
			}
		}
	}
	report.BottomClauseTime = time.Since(bcStart)
	l.obs.Observe(observe.PhaseDone{Phase: observe.PhaseBottomClauses, Duration: report.BottomClauseTime})

	coveringStart := time.Now()
	def := &logic.Definition{Target: p.Target.Name}
	// uncovered is the coverage frontier as a bitmap: bit i set while
	// positive example i is not yet covered by an accepted clause. Accepted
	// clauses subtract their coverage bitmap (computed once, during the
	// acceptance test) instead of being rescored in later iterations.
	uncovered := coverage.FullBits(len(p.Pos))

	iteration := 0
	for uncovered.Any() && def.Len() < l.cfg.MaxClauses {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// Pick the seed: the first uncovered positive example (deterministic
		// given the example order and the seed-driven shuffles below).
		seedIdx := uncovered.Next(0)
		iteration++
		report.SeedsTried++
		l.obs.Observe(observe.IterationStarted{Iteration: iteration, SeedIndex: seedIdx, Uncovered: uncovered.Count()})

		bottom, err := builder.BottomClause(p.Pos[seedIdx])
		if err != nil {
			return nil, nil, err
		}
		current := bottom
		// The bottom clause covers (at least) its seed and no negatives by
		// construction; scoring it in full would be wasted work.
		currentScore := coverage.Score{PositivesCovered: 1}
		report.ClausesConsidered++

		// During the search, score candidates against a bounded sample of
		// negative examples; the acceptance test below uses all of them.
		searchNeg := negEx
		if l.cfg.NegativeSearchSample > 0 && len(searchNeg) > l.cfg.NegativeSearchSample {
			searchNeg = searchNeg[:l.cfg.NegativeSearchSample]
		}

		// The progress measure of the hill-climb counts only still-uncovered
		// positives; the pool is stable within an iteration (the frontier
		// only changes on acceptance), so it is materialized once.
		pool := l.uncoveredPool(posEx, uncovered)

		// Hill-climb: in each step, generalize the current clause toward a
		// sample of uncovered positive examples, score the resulting
		// candidates concurrently through the two-tier scheduler, and keep
		// the best-scoring candidate, until the score stops improving
		// (Section 4.2).
		for {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			sample := l.sampleUncovered(rng, uncovered, seedIdx)
			if len(sample) == 0 {
				break
			}
			// Generalization is sequential — each candidate derives from the
			// same incumbent — and cheap next to scoring; the candidates it
			// produces are independent and scored concurrently below.
			var cands []logic.Clause
			for _, ei := range sample {
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
				// Generalize against the prepared example so the blocking-
				// literal scan reuses its precompiled ground clause.
				ex := posEx[ei]
				genEx := generalize.New(func(cand, _ logic.Clause) bool {
					return eval.CoversPositiveExample(ctx, cand, ex)
				})
				cand, ok := genEx.Generalize(current, posGround[ei])
				if !ok {
					continue
				}
				cands = append(cands, cand)
			}
			report.ClausesConsidered += len(cands)
			// Score the independent candidates concurrently with the
			// incumbent's value as the shared floor: each batch stops as soon
			// as its candidate provably cannot beat the best lower-indexed
			// score seen so far, and a non-exact result means exactly that,
			// so BestCandidate discards it. The selection is identical to
			// scoring the candidates one by one.
			plansBefore := eval.PlanSnapshot()
			results := eval.ScoreCandidates(ctx, cands, pool, searchNeg, currentScore.Value(), 0)
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			plansAfter := eval.PlanSnapshot()
			bestIdx, bestScore, improved := coverage.BestCandidate(results, currentScore.Value())
			earlyExited := 0
			for _, r := range results {
				if !r.Exact {
					earlyExited++
				}
			}
			l.obs.Observe(observe.CandidateBatchScored{
				Iteration:     iteration,
				Candidates:    len(cands),
				Parallelism:   eval.CandidateWorkers(len(cands), 0),
				EarlyExited:   earlyExited,
				Improved:      improved,
				Probes:        plansAfter.Probes - plansBefore.Probes,
				SearchNodes:   plansAfter.Nodes - plansBefore.Nodes,
				PlannedProbes: plansAfter.Planned - plansBefore.Planned,
			})
			if !improved {
				break
			}
			current, currentScore = cands[bestIdx], bestScore
			l.obs.Observe(observe.CoverageProgress{
				Iteration:         iteration,
				ClausesConsidered: report.ClausesConsidered,
				BestPositives:     currentScore.PositivesCovered,
				BestNegatives:     currentScore.NegativesCovered,
			})
		}

		// Acceptance test over the full training set. The positive side is
		// computed as a coverage bitmap, so the accepted clause's coverage is
		// known the moment it is accepted — the clause is never rescored: the
		// bitmap's count is the acceptance statistic and its subtraction from
		// the frontier replaces the old per-acceptance rescoring pass.
		posBits := eval.CoverageBits(ctx, current, posEx)
		full := coverage.Score{
			PositivesCovered: posBits.Count(),
			NegativesCovered: eval.CountNegativeExamples(ctx, current, negEx),
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		accept := full.PositivesCovered >= l.cfg.MinPositiveCoverage &&
			float64(full.NegativesCovered) <= l.cfg.MaxNegativeFraction*float64(full.PositivesCovered+full.NegativesCovered)
		if accept {
			def.Add(current, logic.ClauseStats{
				PositivesCovered: full.PositivesCovered,
				NegativesCovered: full.NegativesCovered,
				Score:            full.PositivesCovered - full.NegativesCovered,
			})
			uncovered.AndNot(posBits)
			// The seed must leave the pool even if the accepted clause
			// somehow fails to cover it (conservative coverage testing),
			// otherwise the loop would not terminate.
			uncovered.Clear(seedIdx)
			l.obs.Observe(observe.ClauseAccepted{
				Iteration: iteration,
				Clause:    current.String(),
				Positives: full.PositivesCovered,
				Negatives: full.NegativesCovered,
				Uncovered: uncovered.Count(),
			})
		} else {
			uncovered.Clear(seedIdx)
			l.obs.Observe(observe.ClauseRejected{
				Iteration: iteration,
				Clause:    current.String(),
				Positives: full.PositivesCovered,
				Negatives: full.NegativesCovered,
			})
		}
	}

	report.UncoveredPositives = uncovered.Count()
	plans := eval.PlanSnapshot()
	report.ExhaustedProbes = plans.Exhausted
	report.TruncatedExpansions = plans.Truncated
	report.Duration = time.Since(start)
	l.obs.Observe(observe.PhaseDone{Phase: observe.PhaseCovering, Duration: time.Since(coveringStart)})
	l.obs.Observe(observe.RunFinished{
		Clauses:             def.Len(),
		ClausesConsidered:   report.ClausesConsidered,
		UncoveredPositives:  report.UncoveredPositives,
		ExhaustedProbes:     report.ExhaustedProbes,
		TruncatedExpansions: report.TruncatedExpansions,
		Duration:            report.Duration,
	})
	return def, report, nil
}

// groundAll builds ground bottom clauses for a slice of examples.
func (l *Learner) groundAll(ctx context.Context, builder *bottomclause.Builder, examples []relation.Tuple) ([]logic.Clause, error) {
	out := make([]logic.Clause, len(examples))
	for i, e := range examples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, err := builder.GroundBottomClause(e)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// uncoveredPool materializes the prepared examples of the still-uncovered
// positives (the covering algorithm's progress measure) in index order.
func (l *Learner) uncoveredPool(posEx []*coverage.Example, uncovered *coverage.Bits) []*coverage.Example {
	pool := make([]*coverage.Example, 0, uncovered.Count())
	for i := uncovered.Next(0); i >= 0; i = uncovered.Next(i + 1) {
		pool = append(pool, posEx[i])
	}
	return pool
}

// sampleUncovered picks up to GeneralizationSample uncovered positive
// example indices, excluding the seed. The pool is assembled in ascending
// index order — the same order the pre-bitmap uncovered slice had — so the
// seed-driven shuffle consumes the RNG identically and learned definitions
// stay byte-identical across representations.
func (l *Learner) sampleUncovered(rng *rand.Rand, uncovered *coverage.Bits, seed int) []int {
	var pool []int
	for i := uncovered.Next(0); i >= 0; i = uncovered.Next(i + 1) {
		if i != seed {
			pool = append(pool, i)
		}
	}
	if len(pool) <= l.cfg.GeneralizationSample {
		return pool
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := append([]int(nil), pool[:l.cfg.GeneralizationSample]...)
	sort.Ints(out)
	return out
}
