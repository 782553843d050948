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

// serialWinner is the serial reference of the scheduler: the hill-climb
// loop that scores candidates one at a time, each in a one-candidate
// ScoreCandidates call, raising the floor on every strict improvement.
func serialWinner(e *Evaluator, cands []logic.Clause, pos, neg []*Example, floor int) (idx int, best Score, ok bool) {
	idx = -1
	for i := range cands {
		r := e.ScoreCandidates(context.Background(), cands[i:i+1], pos, neg, floor, 1)[0]
		if r.Exact && r.Score.Value() > floor {
			idx, best, ok = i, r.Score, true
			floor = r.Score.Value()
		}
	}
	return idx, best, ok
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
		refIdx, refScore, refOK := serialWinner(e, cands, posEx, negEx, floor)

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
						if full := fullScore(e, cands[i], posEx, negEx); r.Score != full {
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
// scheduler simultaneously on one evaluator, colliding in the value table
// of their own run and in the evaluator's caches across runs. Every
// scheduler run must still select the serial winner.
func TestScoreCandidatesSharedFloorStress(t *testing.T) {
	cands, posEx, negEx, e := schedulerWorkload(t)
	ctx := context.Background()

	floor := -1 << 30
	refIdx, refScore, refOK := serialWinner(e, cands, posEx, negEx, floor)
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
				par := 1 + (w+it)%4
				results := e.ScoreCandidates(ctx, cands, posEx, negEx, floor, par)
				idx, score, ok := BestCandidate(results, floor)
				if !ok || idx != refIdx || score != refScore {
					t.Errorf("worker %d iter %d (par %d): BestCandidate = (%d, %+v, %v), want (%d, %+v, true)",
						w, it, par, idx, score, ok, refIdx, refScore)
				}
			}
		}(w)
	}
	wg.Wait()
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
