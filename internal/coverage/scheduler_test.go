package coverage

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dlearn/internal/logic"
)

// schedulerWorkload builds a candidate set with deliberate score ties (each
// genre clause duplicated) so the lowest-index tie-break is actually
// exercised, plus the no-coverage western clause that always early-exits.
func schedulerWorkload(t testing.TB) ([]logic.Clause, []*Example, []*Example, *Evaluator) {
	t.Helper()
	_, posG, negG := benchExamples(t, 40, 6, 6)
	cands := benchCandidates()
	cands = append(cands, cands[0], cands[1], westernCandidate())
	e := NewEvaluator(Options{Threads: 4, CandidateParallelism: 4})
	posEx := mustExamples(t, e, posG)
	negEx := mustExamples(t, e, negG)
	return cands, posEx, negEx, e
}

// TestScoreCandidatesDeterministicAcrossParallelism is the scheduler's core
// contract: BestCandidate over a ScoreCandidates result must select the same
// candidate (index AND score) for every parallelism level, matching the
// serial reference in which candidates are scored one at a time with the
// incumbent floor rising exactly as the hill-climb raises it.
func TestScoreCandidatesDeterministicAcrossParallelism(t *testing.T) {
	cands, posEx, negEx, e := schedulerWorkload(t)
	ctx := context.Background()

	for _, floor := range []int{-1 << 30, 0, 2} {
		// Serial reference: the pre-scheduler hill-climb loop.
		refIdx, refScore, refOK := -1, Score{}, false
		refFloor := floor
		for i, c := range cands {
			s, exact := e.ScoreBatch(ctx, c, posEx, negEx, refFloor)
			if exact && s.Value() > refFloor {
				refIdx, refScore, refOK = i, s, true
				refFloor = s.Value()
			}
		}

		for _, par := range []int{1, 2, 3, 8} {
			for rep := 0; rep < 3; rep++ {
				results := e.ScoreCandidates(ctx, cands, posEx, negEx, floor, par)
				idx, score, ok := BestCandidate(results, floor)
				if ok != refOK || idx != refIdx || (ok && score != refScore) {
					t.Fatalf("floor=%d parallelism=%d rep=%d: BestCandidate = (%d, %+v, %v), serial reference (%d, %+v, %v)",
						floor, par, rep, idx, score, ok, refIdx, refScore, refOK)
				}
				// Every exact result must carry the true score.
				for i, r := range results {
					if r.Exact {
						if full := e.ScoreClauseExamples(ctx, cands[i], posEx, negEx); r.Score != full {
							t.Fatalf("candidate %d: exact scheduler score %+v, full score %+v", i, r.Score, full)
						}
					}
				}
			}
		}
	}
}

// TestScoreCandidatesSharedFloorStress is the -race stress test for
// concurrent candidate scoring with a shared floor: many goroutines run the
// scheduler simultaneously on one evaluator (colliding in the value table
// of their own run and in the evaluator's caches and heat counters across
// runs) while others mutate the heat ordering via plain batches. Every
// scheduler run must still select the serial winner.
func TestScoreCandidatesSharedFloorStress(t *testing.T) {
	cands, posEx, negEx, e := schedulerWorkload(t)
	ctx := context.Background()

	refIdx, refScore, refOK := -1, Score{}, false
	floor := -1 << 30
	refFloor := floor
	for i, c := range cands {
		s, exact := e.ScoreBatch(ctx, c, posEx, negEx, refFloor)
		if exact && s.Value() > refFloor {
			refIdx, refScore, refOK = i, s, true
			refFloor = s.Value()
		}
	}
	if !refOK {
		t.Fatal("workload has no winning candidate; the stress would be vacuous")
	}

	const workers = 8
	const iters = 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch w % 3 {
				case 2:
					// Heat churn: reorder adaptive scheduling under the
					// other workers' feet.
					e.ScoreBatch(ctx, cands[(w+it)%len(cands)], posEx, negEx, refScore.Value())
				default:
					par := 1 + (w+it)%4
					results := e.ScoreCandidates(ctx, cands, posEx, negEx, floor, par)
					idx, score, ok := BestCandidate(results, floor)
					if !ok || idx != refIdx || score != refScore {
						t.Errorf("worker %d iter %d (par %d): BestCandidate = (%d, %+v, %v), want (%d, %+v, true)",
							w, it, par, idx, score, ok, refIdx, refScore)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAdaptiveOrderPrefersHotExamples checks the ScoreBatch scheduling
// heuristic directly: after batches in which some examples closed the bound,
// those examples move to the front of the processing order.
func TestAdaptiveOrderPrefersHotExamples(t *testing.T) {
	_, posG, negG := benchExamples(t, 40, 4, 4)
	e := NewEvaluator(Options{Threads: 1})
	posEx := mustExamples(t, e, posG)
	negEx := mustExamples(t, e, negG)

	// Cold: the order must be the identity (positives then negatives).
	order := adaptiveOrder(posEx, negEx)
	for k, i := range order {
		if k != i {
			t.Fatalf("cold order[%d] = %d, want identity", k, i)
		}
	}

	// Heat up negative 2 and positive 3: each must lead its own tier, with
	// positives still ahead of every negative (positive misses are the
	// dominant bound-closers) and stable index order elsewhere.
	negEx[2].heat.Add(5)
	posEx[3].heat.Add(3)
	order = adaptiveOrder(posEx, negEx)
	want := []int{3, 0, 1, 2, len(posEx) + 2, len(posEx), len(posEx) + 1, len(posEx) + 3}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("adaptive order = %v, want %v", order, want)
		}
	}
}

// TestScoreBatchHeatAccumulates checks the evaluator maintains the per-
// example hit counters: a candidate that misses positives and covers
// negatives heats exactly those examples.
func TestScoreBatchHeatAccumulates(t *testing.T) {
	_, posG, negG := benchExamples(t, 40, 4, 4)
	e := NewEvaluator(Options{Threads: 1})
	posEx := mustExamples(t, e, posG)
	negEx := mustExamples(t, e, negG)
	ctx := context.Background()

	// The western candidate covers nothing: every positive misses (all heat
	// up) and no negative covers (no heat).
	if _, exact := e.ScoreBatch(ctx, westernCandidate(), posEx, negEx, -1<<30); !exact {
		t.Fatal("unfloored batch must be exact")
	}
	for i, ex := range posEx {
		if ex.Heat() != 1 {
			t.Errorf("positive %d heat = %d, want 1 (missed once)", i, ex.Heat())
		}
	}
	for i, ex := range negEx {
		if ex.Heat() != 0 {
			t.Errorf("negative %d heat = %d, want 0 (never covered)", i, ex.Heat())
		}
	}
}

// BenchmarkScoreCandidates is the small-example-pool benchmark: the pool is
// far smaller than a 16-thread inner pool, so serial candidate scoring
// leaves most workers idle; the two-tier scheduler overlaps candidates and
// must beat it.
func BenchmarkScoreCandidates(b *testing.B) {
	_, posG, negG := benchExamples(b, 120, 6, 6)
	cands := benchCandidates()
	cands = append(cands, cands...) // 12 candidates per refinement sample
	e := NewEvaluator(Options{Threads: 16})
	posEx := mustExamples(b, e, posG)
	negEx := mustExamples(b, e, negG)
	ctx := context.Background()
	// Warm the candidate/repair caches so the modes compare scheduling, not
	// cache state.
	e.ScoreCandidates(ctx, cands, posEx, negEx, -1<<30, 1)
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.ScoreCandidates(ctx, cands, posEx, negEx, -1<<30, par)
			}
		})
	}
}
