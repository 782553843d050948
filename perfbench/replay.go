package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dlearn/internal/bottomclause"
	"dlearn/internal/core"
	"dlearn/internal/coverage"
	"dlearn/internal/generalize"
	"dlearn/internal/logic"
	"dlearn/internal/persist"
	"dlearn/internal/relation"
)

// Span names: one per public layer function the replay calls.
const (
	spanLearn          = "core.Learn"
	spanPredictAll     = "core.PredictAll"
	spanGround         = "bottomclause.GroundBottomClause"
	spanBottom         = "bottomclause.BottomClause"
	spanPrepare        = "coverage.LoadOrPrepareExamples"
	spanGeneralize     = "generalize.Generalize"
	spanCoversPositive = "coverage.CoversPositiveExample"
	spanScore          = "coverage.ScoreCandidates"
	spanCoverageBits   = "coverage.CoverageBits"
	spanCountNegatives = "coverage.CountNegativeExamples"
	spanDefCovers      = "coverage.DefinitionCoversContext"
)

// probeWork is a delta of the evaluator's θ-subsumption counters.
type probeWork struct{ probes, planned, nodes int64 }

func (w *probeWork) add(before, after coverage.PlanCounters) {
	w.probes += after.Probes - before.Probes
	w.planned += after.Planned - before.Planned
	w.nodes += after.Nodes - before.Nodes
}

// learnCounts are the replay's counts, taken at the same boundaries as its
// spans.
type learnCounts struct {
	prepareExamples int
	iterations      int
	accepted        int
	hillSteps       int
	candidates      int // yielded by generalization and scored
	earlyExited     int
	generalize      probeWork
	score           probeWork
	accept          probeWork
	all             probeWork
}

// replayLearn re-runs the covering loop of core.Learner.LearnContext from
// the layers' public functions, recording a span around each call. It must
// return the definition Engine.Learn returns for the same problem and
// configuration; the traced benchmark run checks this byte for byte.
func replayLearn(ctx context.Context, tr *tracer, p core.Problem, cfg core.Config) (*logic.Definition, learnCounts, error) {
	var n learnCounts
	if err := p.Validate(); err != nil {
		return nil, n, err
	}
	cfg = core.NewLearner(cfg).Config()
	tr.newRun()
	root := tr.start(spanLearn, 0)
	defer tr.end(root)

	builder := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, cfg.BottomClause)
	ev := coverage.NewEvaluator(coverage.Options{
		Subsumption:          cfg.Subsumption,
		Repair:               cfg.Repair,
		Threads:              cfg.Threads,
		CandidateParallelism: cfg.CandidateParallelism,
		CacheShards:          cfg.EvalCacheShards,
	})
	start := ev.PlanSnapshot()
	rng := rand.New(rand.NewSource(cfg.Seed))

	groundAll := func(examples []relation.Tuple) ([]logic.Clause, error) {
		out := make([]logic.Clause, len(examples))
		for i, e := range examples {
			id := tr.start(spanGround, root)
			g, err := builder.GroundBottomClause(e)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
		return out, nil
	}
	posGround, err := groundAll(p.Pos)
	if err != nil {
		return nil, n, err
	}
	negGround, err := groundAll(p.Neg)
	if err != nil {
		return nil, n, err
	}
	id := tr.start(spanPrepare, root)
	posEx, negEx, _, err := ev.LoadOrPrepareExamples(ctx, nil, persist.Key{}, posGround, negGround)
	tr.end(id)
	if err != nil {
		return nil, n, err
	}
	n.prepareExamples = len(posEx) + len(negEx)

	def := &logic.Definition{Target: p.Target.Name}
	uncovered := coverage.FullBits(len(p.Pos))
	for uncovered.Any() && def.Len() < cfg.MaxClauses {
		if err := ctx.Err(); err != nil {
			return nil, n, err
		}
		seedIdx := uncovered.Next(0)
		n.iterations++

		id := tr.start(spanBottom, root)
		bottom, err := builder.BottomClause(p.Pos[seedIdx])
		tr.end(id)
		if err != nil {
			return nil, n, err
		}
		current := bottom
		currentScore := coverage.Score{PositivesCovered: 1}

		searchNeg := negEx
		if cfg.NegativeSearchSample > 0 && len(searchNeg) > cfg.NegativeSearchSample {
			searchNeg = searchNeg[:cfg.NegativeSearchSample]
		}
		pool := uncoveredPool(posEx, uncovered)

		for {
			if err := ctx.Err(); err != nil {
				return nil, n, err
			}
			sample := sampleUncovered(rng, uncovered, seedIdx, cfg.GeneralizationSample)
			if len(sample) == 0 {
				break
			}
			n.hillSteps++
			var cands []logic.Clause
			for _, ei := range sample {
				ex := posEx[ei]
				gid := tr.start(spanGeneralize, root)
				gen := generalize.New(func(cand, _ logic.Clause) bool {
					cid := tr.start(spanCoversPositive, gid)
					ok := ev.CoversPositiveExample(ctx, cand, ex)
					tr.end(cid)
					return ok
				})
				before := ev.PlanSnapshot()
				cand, ok := gen.Generalize(current, posGround[ei])
				n.generalize.add(before, ev.PlanSnapshot())
				tr.end(gid)
				if ok {
					cands = append(cands, cand)
				}
			}
			n.candidates += len(cands)

			id := tr.start(spanScore, root)
			before := ev.PlanSnapshot()
			results := ev.ScoreCandidates(ctx, cands, pool, searchNeg, currentScore.Value(), 0)
			n.score.add(before, ev.PlanSnapshot())
			tr.end(id)
			if err := ctx.Err(); err != nil {
				return nil, n, err
			}
			for _, r := range results {
				if !r.Exact {
					n.earlyExited++
				}
			}
			bestIdx, bestScore, improved := coverage.BestCandidate(results, currentScore.Value())
			if !improved {
				break
			}
			current, currentScore = cands[bestIdx], bestScore
		}

		before := ev.PlanSnapshot()
		id = tr.start(spanCoverageBits, root)
		posBits := ev.CoverageBits(ctx, current, posEx)
		tr.end(id)
		id = tr.start(spanCountNegatives, root)
		negCovered := ev.CountNegativeExamples(ctx, current, negEx)
		tr.end(id)
		n.accept.add(before, ev.PlanSnapshot())
		if err := ctx.Err(); err != nil {
			return nil, n, err
		}
		full := coverage.Score{PositivesCovered: posBits.Count(), NegativesCovered: negCovered}
		accept := full.PositivesCovered >= cfg.MinPositiveCoverage &&
			float64(full.NegativesCovered) <= cfg.MaxNegativeFraction*float64(full.PositivesCovered+full.NegativesCovered)
		if accept {
			n.accepted++
			def.Add(current, logic.ClauseStats{
				PositivesCovered: full.PositivesCovered,
				NegativesCovered: full.NegativesCovered,
				Score:            full.PositivesCovered - full.NegativesCovered,
			})
			uncovered.AndNot(posBits)
		}
		uncovered.Clear(seedIdx)
	}
	n.all.add(start, ev.PlanSnapshot())
	return def, n, nil
}

// uncoveredPool mirrors the learner's helper of the same name: the
// prepared examples of the still-uncovered positives in index order.
func uncoveredPool(posEx []*coverage.Example, uncovered *coverage.Bits) []*coverage.Example {
	pool := make([]*coverage.Example, 0, uncovered.Count())
	for i := uncovered.Next(0); i >= 0; i = uncovered.Next(i + 1) {
		pool = append(pool, posEx[i])
	}
	return pool
}

// sampleUncovered mirrors the learner's helper of the same name, consuming
// the random stream identically.
func sampleUncovered(rng *rand.Rand, uncovered *coverage.Bits, seed, size int) []int {
	var pool []int
	for i := uncovered.Next(0); i >= 0; i = uncovered.Next(i + 1) {
		if i != seed {
			pool = append(pool, i)
		}
	}
	if len(pool) <= size {
		return pool
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := append([]int(nil), pool[:size]...)
	sort.Ints(out)
	return out
}

// replayPredictAll re-runs core.Model.PredictAll over the examples from
// the layers' public functions, recording a span around each call. It
// stops at the first example that starts after the deadline and returns
// the predictions of the prefix it classified (at least one example).
func replayPredictAll(ctx context.Context, tr *tracer, def *logic.Definition, p core.Problem, cfg core.Config, examples []relation.Tuple, deadline time.Time) ([]bool, error) {
	cfg = core.NewLearner(cfg).Config()
	tr.newRun()
	root := tr.start(spanPredictAll, 0)
	defer tr.end(root)
	builder := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, cfg.BottomClause)
	ev := coverage.NewEvaluator(coverage.Options{Subsumption: cfg.Subsumption, Repair: cfg.Repair, Threads: cfg.Threads})
	var out []bool
	for _, e := range examples {
		if len(out) > 0 && time.Now().After(deadline) {
			break
		}
		id := tr.start(spanGround, root)
		g, err := builder.GroundBottomClause(e)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("ground %s: %w", e, err)
		}
		id = tr.start(spanDefCovers, root)
		out = append(out, ev.DefinitionCoversContext(ctx, def, g))
		tr.end(id)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
