package bench

import (
	"context"
	"encoding/json"
	"os"
	"time"

	"dlearn/internal/bottomclause"
	"dlearn/internal/core"
	"dlearn/internal/coverage"
	"dlearn/internal/logic"
	"dlearn/internal/observe"
	"dlearn/internal/persist"
)

// CoverageSummary is the machine-readable result of the coverage
// micro-benchmark: throughput of the candidate-evaluation pipeline (prepared
// examples, compiled candidates, sharded caches) in full-scoring and
// floor-bounded batch-scoring modes. It is written to BENCH_coverage.json
// and tracked across PRs as the perf trajectory of the hottest path.
type CoverageSummary struct {
	Experiment  string `json:"experiment"`
	Seed        int64  `json:"seed"`
	Threads     int    `json:"threads"`
	CacheShards int    `json:"cache_shards"`

	Candidates int `json:"candidates"`
	Positives  int `json:"positives"`
	Negatives  int `json:"negatives"`
	Rounds     int `json:"rounds"`

	// PrepareSeconds is the one-off cost of preparing all ground bottom
	// clauses for repeated probing — the cold-start cost the snapshot store
	// exists to amortize.
	PrepareSeconds float64 `json:"prepare_seconds"`

	// SnapshotHit reports whether the warm-start load was served from the
	// snapshot store (persistence worked end to end in this run).
	SnapshotHit bool `json:"snapshot_hit"`
	// LoadSeconds is the warm-start cost: loading, decoding and restoring
	// the prepared examples from the snapshot store.
	LoadSeconds float64 `json:"load_seconds"`
	// SnapshotBytes is the encoded snapshot size on disk.
	SnapshotBytes int `json:"snapshot_bytes"`
	// WarmSpeedup is PrepareSeconds / LoadSeconds: how much faster a warm
	// start is than a cold one.
	WarmSpeedup float64 `json:"warm_speedup"`

	// Full scoring: every candidate scored over every example per round.
	FullScoreSeconds    float64 `json:"full_score_seconds"`
	CoverTestsPerSecond float64 `json:"cover_tests_per_second"`

	// Batch scoring: the same work with the incumbent's score as the floor,
	// early-exiting candidates that cannot win.
	BatchScoreSeconds float64 `json:"batch_score_seconds"`
	BatchEarlyExits   int     `json:"batch_early_exits"`
	BatchSpeedup      float64 `json:"batch_speedup"`

	// Candidate-tier scheduling on the small-example-pool workload: the same
	// candidates scored over a pool smaller than the thread count, one
	// candidate at a time (inner pool only) and through the two-tier
	// scheduler (CandidateParallelism outer workers × Threads inner workers),
	// both sharing the rising floor.
	CandidateParallelism     int     `json:"candidate_parallelism"`
	CandidatePoolPositives   int     `json:"candidate_pool_positives"`
	CandidatePoolNegatives   int     `json:"candidate_pool_negatives"`
	CandidateSerialSeconds   float64 `json:"candidate_serial_seconds"`
	CandidateParallelSeconds float64 `json:"candidate_parallel_seconds"`
	CandidateParallelSpeedup float64 `json:"candidate_parallel_speedup"`
	CandidateEarlyExits      int     `json:"candidate_early_exits"`

	// Covering-run scheduler telemetry: a full learner pass over the same
	// problem, its CandidateBatchScored events aggregated into a per-run
	// early-exit rate — the same figure dlearn-serve exports cumulatively
	// via /v1/stats, recorded here per benchmark run so its trajectory is
	// tracked across PRs alongside the throughput numbers. LearnProbes and
	// LearnSearchNodes are the θ-subsumption probes the pass issued and the
	// search nodes they explored.
	LearnSeconds          float64 `json:"learn_seconds"`
	LearnClauses          int     `json:"learn_clauses"`
	LearnCandidateBatches int64   `json:"learn_candidate_batches"`
	LearnCandidatesScored int64   `json:"learn_candidates_scored"`
	LearnEarlyExits       int64   `json:"learn_early_exits"`
	LearnEarlyExitRate    float64 `json:"learn_early_exit_rate"`
	LearnProbes           int64   `json:"learn_probes"`
	LearnSearchNodes      int64   `json:"learn_search_nodes"`

	// Snapshot-store occupancy after the run (and, with a size cap, after
	// the LRU sweep): total bytes and file count in the store directory.
	SnapshotStoreBytes int64 `json:"snapshot_store_bytes"`
	SnapshotStoreFiles int   `json:"snapshot_store_files"`
	// SnapshotMaxBytes echoes the -snapshot-max-bytes cap (0 = unbounded);
	// SnapshotSweepRemoved counts the snapshots the sweep deleted.
	SnapshotMaxBytes     int64 `json:"snapshot_max_bytes"`
	SnapshotSweepRemoved int   `json:"snapshot_sweep_removed"`
}

// coverageScale returns the workload size: candidates, positives, negatives,
// rounds.
func (o Options) coverageScale() (int, int, int, int) {
	if o.Quick {
		return 4, 10, 16, 2
	}
	return 8, 40, 60, 3
}

// RunCoverage benchmarks the candidate-evaluation pipeline on the IMDB+OMDB
// dataset with CFD violations: it grounds and prepares the training
// examples (cold), snapshots them, loads them back through the snapshot
// store (warm), then repeatedly scores bottom-clause candidates over the
// warm-loaded examples, both exhaustively (ScoreClauseExamples) and with
// floor-bounded early exit (ScoreBatch), and reports the throughput of each
// mode. Scoring against the restored examples makes the warm path's
// correctness part of the benchmark, not an assumption.
func RunCoverage(ctx context.Context, o Options) (CoverageSummary, error) {
	w := o.out()
	fprintf(w, "Coverage micro-benchmark: candidate evaluation over prepared examples\n")

	nCand, nPos, nNeg, rounds := o.coverageScale()
	ds, err := o.generate(datasetSpec{key: "imdb3"}, 0.10)
	if err != nil {
		return CoverageSummary{}, err
	}
	lcfg := o.learnerConfig(2, o.iterationsFor("imdb"), 10)
	p := ds.Problem
	builder := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, lcfg.BottomClause)
	eval := coverage.NewEvaluator(coverage.Options{
		Subsumption:          lcfg.Subsumption,
		Repair:               lcfg.Repair,
		Threads:              o.Threads,
		CandidateParallelism: o.CandidateParallelism,
		CacheShards:          lcfg.EvalCacheShards,
	})

	if nPos > len(p.Pos) {
		nPos = len(p.Pos)
	}
	if nNeg > len(p.Neg) {
		nNeg = len(p.Neg)
	}
	if nCand > nPos {
		nCand = nPos
	}
	var posG, negG []logic.Clause
	for _, t := range p.Pos[:nPos] {
		g, err := builder.GroundBottomClause(t)
		if err != nil {
			return CoverageSummary{}, err
		}
		posG = append(posG, g)
	}
	for _, t := range p.Neg[:nNeg] {
		g, err := builder.GroundBottomClause(t)
		if err != nil {
			return CoverageSummary{}, err
		}
		negG = append(negG, g)
	}
	var cands []logic.Clause
	for _, t := range p.Pos[:nCand] {
		c, err := builder.BottomClause(t)
		if err != nil {
			return CoverageSummary{}, err
		}
		cands = append(cands, c)
	}

	// Cold start: prepare every example fresh, then persist the result.
	snapDir := o.SnapshotDir
	if snapDir == "" {
		tmp, err := os.MkdirTemp("", "dlearn-snapshots-*")
		if err != nil {
			return CoverageSummary{}, err
		}
		defer os.RemoveAll(tmp)
		snapDir = tmp
	}
	// The store is capped only for the report-time sweep below: capping it
	// here would let Save sweep eagerly and hide the reclaim count the
	// summary reports.
	store := persist.NewDirStore(snapDir)
	// The benchmark scores a subset of the dataset's examples, so the
	// fingerprint covers exactly that subset — shared with the learner via
	// core.SnapshotFingerprint so both tools key snapshots identically.
	benchProblem := p
	benchProblem.Pos = p.Pos[:nPos]
	benchProblem.Neg = p.Neg[:nNeg]
	key := core.SnapshotFingerprint(benchProblem, lcfg).Key()

	prepStart := time.Now()
	coldPos, err := eval.NewExamples(ctx, posG)
	if err != nil {
		return CoverageSummary{}, err
	}
	coldNeg, err := eval.NewExamples(ctx, negG)
	if err != nil {
		return CoverageSummary{}, err
	}
	prepare := time.Since(prepStart)

	snapData := persist.EncodeExampleSet(coverage.SnapshotExamples(coldPos, coldNeg))
	if err := store.Save(key, snapData); err != nil {
		return CoverageSummary{}, err
	}

	// Warm start: a fresh evaluator loads the snapshot through the same
	// path the learner uses. The scoring passes below run on the restored
	// examples.
	warmEval := coverage.NewEvaluator(coverage.Options{
		Subsumption:          lcfg.Subsumption,
		Repair:               lcfg.Repair,
		Threads:              o.Threads,
		CandidateParallelism: o.CandidateParallelism,
		CacheShards:          lcfg.EvalCacheShards,
	})
	posEx, negEx, outcome, err := warmEval.LoadOrPrepareExamples(ctx, store, key, posG, negG)
	if err != nil {
		return CoverageSummary{}, err
	}
	eval = warmEval
	fprintf(w, "  snapshot: key %s, %d bytes in %s\n", key.Short(), len(snapData), snapDir)
	if outcome.Hit {
		fprintf(w, "  snapshot hit: warm load %.3fs vs cold prepare %.3fs (%.0fx)\n",
			outcome.LoadTime.Seconds(), prepare.Seconds(), prepare.Seconds()/outcome.LoadTime.Seconds())
	} else {
		fprintf(w, "  snapshot miss (%s): warm start fell back to fresh preparation\n", outcome.Reason)
	}

	// Untimed warm-up: populate the candidate/repair/strip caches so the two
	// timed passes compare scoring strategies, not cache states.
	for _, c := range cands {
		eval.ScoreClauseExamples(ctx, c, posEx, negEx)
	}
	if err := ctx.Err(); err != nil {
		return CoverageSummary{}, err
	}

	// Full scoring: the pre-early-exit workload.
	fullStart := time.Now()
	for r := 0; r < rounds; r++ {
		for _, c := range cands {
			eval.ScoreClauseExamples(ctx, c, posEx, negEx)
		}
	}
	if err := ctx.Err(); err != nil {
		return CoverageSummary{}, err
	}
	full := time.Since(fullStart)

	// Batch scoring with the incumbent floor, as the hill-climb issues it.
	earlyExits := 0
	batchStart := time.Now()
	for r := 0; r < rounds; r++ {
		floor := -1 << 30
		for _, c := range cands {
			score, exact := eval.ScoreBatch(ctx, c, posEx, negEx, floor)
			if !exact {
				earlyExits++
				continue
			}
			if score.Value() > floor {
				floor = score.Value()
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return CoverageSummary{}, err
	}
	batch := time.Since(batchStart)

	// Candidate-tier scheduling on the small-example-pool workload: a pool
	// smaller than the inner thread count leaves most workers idle when
	// candidates run one at a time; the scheduler overlaps the candidates.
	// Both passes run on the same warmed evaluator with the same shared-
	// floor semantics, so the comparison isolates the outer tier.
	poolPos, poolNeg := smallPool(posEx), smallPool(negEx)
	candPar := eval.CandidateWorkers(len(cands), 0)
	candRounds := rounds * 4
	candSerialStart := time.Now()
	for r := 0; r < candRounds; r++ {
		coverage.BestCandidate(eval.ScoreCandidates(ctx, cands, poolPos, poolNeg, -1<<30, 1), -1<<30)
	}
	candSerial := time.Since(candSerialStart)
	candEarlyExits := 0
	candParStart := time.Now()
	for r := 0; r < candRounds; r++ {
		results := eval.ScoreCandidates(ctx, cands, poolPos, poolNeg, -1<<30, candPar)
		for _, res := range results {
			if !res.Exact {
				candEarlyExits++
			}
		}
	}
	candParallel := time.Since(candParStart)
	if err := ctx.Err(); err != nil {
		return CoverageSummary{}, err
	}

	// Covering-run pass: a real learner run over the benchmark subset, with
	// its scheduler telemetry aggregated from CandidateBatchScored events.
	// The learner shares the snapshot store, so the pass warm-starts off the
	// snapshot saved above and times the covering loop, not preparation.
	// The hill-climb budgets are clamped so the pass stays a bounded
	// micro-benchmark rather than a full evaluation run; none of the clamped
	// fields feed the snapshot fingerprint, so the warm start is preserved.
	sched := observe.NewSchedulerStats()
	plans := observe.NewPlanStats()
	learnCfg := lcfg
	learnCfg.Observer = observe.Multi(sched, plans)
	learnCfg.SnapshotStore = store
	learnCfg.GeneralizationSample = 4
	learnCfg.NegativeSearchSample = 16
	learnCfg.MaxClauses = 6
	learnStart := time.Now()
	def, _, err := core.NewLearner(learnCfg).LearnContext(ctx, benchProblem)
	if err != nil {
		return CoverageSummary{}, err
	}
	learnDur := time.Since(learnStart)
	learnStats := sched.Snapshot()
	planStats := plans.Snapshot()

	tests := float64(rounds) * float64(len(cands)) * float64(len(posEx)+len(negEx))
	// Store occupancy (after an LRU sweep when a cap is configured).
	var sweepRemoved int
	if o.SnapshotMaxBytes > 0 {
		stats, err := store.SetMaxBytes(o.SnapshotMaxBytes).Compact()
		if err != nil {
			return CoverageSummary{}, err
		}
		sweepRemoved = stats.Removed
	}
	storeBytes, storeFiles, err := store.Size()
	if err != nil {
		return CoverageSummary{}, err
	}

	s := CoverageSummary{
		Experiment:               "coverage",
		Seed:                     o.Seed,
		Threads:                  eval.Threads(),
		CacheShards:              eval.CacheShards(),
		Candidates:               len(cands),
		Positives:                len(posEx),
		Negatives:                len(negEx),
		Rounds:                   rounds,
		PrepareSeconds:           prepare.Seconds(),
		SnapshotHit:              outcome.Hit,
		LoadSeconds:              outcome.LoadTime.Seconds(),
		SnapshotBytes:            len(snapData),
		FullScoreSeconds:         full.Seconds(),
		CoverTestsPerSecond:      tests / full.Seconds(),
		BatchScoreSeconds:        batch.Seconds(),
		BatchEarlyExits:          earlyExits,
		CandidateParallelism:     candPar,
		CandidatePoolPositives:   len(poolPos),
		CandidatePoolNegatives:   len(poolNeg),
		CandidateSerialSeconds:   candSerial.Seconds(),
		CandidateParallelSeconds: candParallel.Seconds(),
		CandidateEarlyExits:      candEarlyExits,
		LearnSeconds:             learnDur.Seconds(),
		LearnClauses:             def.Len(),
		LearnCandidateBatches:    learnStats.Batches,
		LearnCandidatesScored:    learnStats.Candidates,
		LearnEarlyExits:          learnStats.EarlyExited,
		LearnEarlyExitRate:       learnStats.EarlyExitRate,
		LearnProbes:              planStats.Probes,
		LearnSearchNodes:         planStats.Nodes,
		SnapshotStoreBytes:       storeBytes,
		SnapshotStoreFiles:       storeFiles,
		SnapshotMaxBytes:         o.SnapshotMaxBytes,
		SnapshotSweepRemoved:     sweepRemoved,
	}
	if batch > 0 {
		s.BatchSpeedup = full.Seconds() / batch.Seconds()
	}
	if s.LoadSeconds > 0 {
		s.WarmSpeedup = s.PrepareSeconds / s.LoadSeconds
	}
	if candParallel > 0 {
		s.CandidateParallelSpeedup = candSerial.Seconds() / candParallel.Seconds()
	}
	fprintf(w, "  candidates=%d positives=%d negatives=%d rounds=%d threads=%d shards=%d\n",
		s.Candidates, s.Positives, s.Negatives, s.Rounds, s.Threads, s.CacheShards)
	fprintf(w, "  prepare=%.3fs  load=%.3fs (hit=%v, %.0fx warm speedup)  full=%.3fs (%.0f cover tests/s)  batch=%.3fs (%.2fx, %d early exits)\n",
		s.PrepareSeconds, s.LoadSeconds, s.SnapshotHit, s.WarmSpeedup,
		s.FullScoreSeconds, s.CoverTestsPerSecond, s.BatchScoreSeconds, s.BatchSpeedup, s.BatchEarlyExits)
	fprintf(w, "  candidate tier (pool %dp+%dn): serial=%.3fs  parallel[%d]=%.3fs (%.2fx, %d early exits)\n",
		s.CandidatePoolPositives, s.CandidatePoolNegatives, s.CandidateSerialSeconds,
		s.CandidateParallelism, s.CandidateParallelSeconds, s.CandidateParallelSpeedup, s.CandidateEarlyExits)
	fprintf(w, "  covering run: %d clauses in %.3fs — %d batches, %d candidates, %d early exits (%.0f%% early-exit rate), %d probes, %d search nodes\n",
		s.LearnClauses, s.LearnSeconds, s.LearnCandidateBatches, s.LearnCandidatesScored,
		s.LearnEarlyExits, 100*s.LearnEarlyExitRate, s.LearnProbes, s.LearnSearchNodes)
	fprintf(w, "  snapshot store: %d files, %d bytes", s.SnapshotStoreFiles, s.SnapshotStoreBytes)
	if s.SnapshotMaxBytes > 0 {
		fprintf(w, " (cap %d, sweep removed %d)", s.SnapshotMaxBytes, s.SnapshotSweepRemoved)
	}
	fprintf(w, "\n")
	return s, nil
}

// smallPool trims a prepared-example slice to the small-example-pool
// workload: at most 8 examples, fewer than the inner worker pool on the
// thread counts the paper uses, so candidate-level parallelism is the only
// way to keep the machine busy.
func smallPool(exs []*coverage.Example) []*coverage.Example {
	if len(exs) > 8 {
		return exs[:8]
	}
	return exs
}

// WriteCoverageJSON writes the coverage summary as indented JSON to path.
func WriteCoverageJSON(path string, s CoverageSummary) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
