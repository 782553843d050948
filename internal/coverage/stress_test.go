package coverage

import (
	"context"
	"sync"
	"testing"

	"dlearn/internal/logic"
)

// westernCandidate requires a genre absent from the bench database, so it
// covers no example at all: every positive misses, which closes the
// early-exit bound with the whole negative batch still pending.
func westernCandidate() logic.Clause {
	x, tt, y, z := logic.Var("x"), logic.Var("t"), logic.Var("y"), logic.Var("z")
	vx, vt := logic.Var("vx"), logic.Var("vt")
	cond := logic.Condition{Op: logic.CondSim, L: x, R: tt}
	return logic.NewClause(
		logic.Rel("highGrossing", x),
		logic.Rel("movies", y, tt, z),
		logic.Rel("mov2genres", y, logic.Const("western")),
		logic.Sim(x, tt),
		logic.RepairInGroup("md_title", "md_title#c", logic.OriginMD, x, vx, cond),
		logic.RepairInGroup("md_title", "md_title#c", logic.OriginMD, tt, vt, cond),
		logic.Eq(vx, vt),
	)
}

// fullScore is the reference score of a clause: its positive coverage
// bitmap's count and its negative count, the learner's acceptance path.
func fullScore(e *Evaluator, c logic.Clause, pos, neg []*Example) Score {
	ctx := context.Background()
	return Score{
		PositivesCovered: e.CoverageBits(ctx, c, pos).Count(),
		NegativesCovered: e.CountNegativeExamples(ctx, c, neg),
	}
}

// TestEvaluatorConcurrentStress hammers one shared Evaluator from many
// goroutines with a mix of batch scoring (with and without early-exit
// floors), example preparation and cancelled batches. Run under -race it
// checks the lock-striped caches and shared compiled candidates; the
// assertions check that exact results are deterministic: every exact score
// must equal the score a single-threaded evaluator computes for the same
// fixed-seed workload.
func TestEvaluatorConcurrentStress(t *testing.T) {
	_, posG, negG := benchExamples(t, 40, 6, 6)
	cands := append(benchCandidates(), westernCandidate())
	ctx := context.Background()

	// Reference scores from a serial evaluator.
	ref := NewEvaluator(Options{Threads: 1})
	refPos := mustExamples(t, ref, posG)
	refNeg := mustExamples(t, ref, negG)
	want := make([]Score, len(cands))
	for i, c := range cands {
		want[i] = fullScore(ref, c, refPos, refNeg)
	}

	// Few stripes on purpose: more goroutines collide on each lock.
	e := NewEvaluator(Options{Threads: 4, CacheShards: 2})
	posEx := mustExamples(t, e, posG)
	negEx := mustExamples(t, e, negG)

	const workers = 8
	const iters = 4
	noFloor := -1 << 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for ci, c := range cands {
					switch (w + it + ci) % 4 {
					case 0:
						// Unfloored batch: always exact and deterministic.
						r := e.ScoreCandidates(ctx, cands[ci:ci+1], posEx, negEx, noFloor, 1)[0]
						if !r.Exact {
							t.Errorf("unfloored batch reported non-exact for candidate %d", ci)
						} else if r.Score != want[ci] {
							t.Errorf("candidate %d: concurrent score %+v, serial %+v", ci, r.Score, want[ci])
						}
					case 1:
						// Floor at the candidate's own value: the batch may
						// early-exit, but an exact result must still match.
						r := e.ScoreCandidates(ctx, cands[ci:ci+1], posEx, negEx, want[ci].Value(), 1)[0]
						if r.Exact && r.Score != want[ci] {
							t.Errorf("candidate %d: floored exact score %+v, serial %+v", ci, r.Score, want[ci])
						}
					case 2:
						// Concurrent example preparation against the shared
						// caches, probed immediately.
						ex := e.NewExample(ctx, posG[(w+it)%len(posG)])
						e.CoversPositiveExample(ctx, c, ex)
						e.CountNegativeExamples(ctx, c, []*Example{ex})
					default:
						// Cancelled batches must stay conservative (non-exact)
						// and must not poison the caches for other workers.
						cctx, cancel := context.WithCancel(ctx)
						cancel()
						if r := e.ScoreCandidates(cctx, cands[ci:ci+1], posEx, negEx, noFloor, 1)[0]; r.Exact {
							t.Errorf("cancelled batch reported an exact score")
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// After the stress, the shared evaluator must still score exactly.
	for ci, c := range cands {
		if got := fullScore(e, c, posEx, negEx); got != want[ci] {
			t.Errorf("candidate %d after stress: score %+v, want %+v", ci, got, want[ci])
		}
	}
}

// TestScoreBatchEarlyExit checks the early-exit contract of a one-candidate
// ScoreCandidates call on a serial evaluator: a floor the candidate cannot
// exceed yields a non-exact result, and a batch that runs to completion
// matches the full score.
func TestScoreBatchEarlyExit(t *testing.T) {
	_, posG, negG := benchExamples(t, 40, 6, 6)
	cands := append(benchCandidates(), westernCandidate())
	ctx := context.Background()
	e := NewEvaluator(Options{Threads: 1})
	posEx := mustExamples(t, e, posG)
	negEx := mustExamples(t, e, negG)

	earlyExits := 0
	for ci, c := range cands {
		full := fullScore(e, c, posEx, negEx)
		one := cands[ci : ci+1]
		if r := e.ScoreCandidates(ctx, one, posEx, negEx, -1<<30, 1)[0]; !r.Exact || r.Score != full {
			t.Errorf("candidate %d: unfloored batch %+v (exact=%v), want %+v", ci, r.Score, r.Exact, full)
		}
		// A floor of len(pos) can never be exceeded: the batch must refuse
		// without scoring anything.
		if r := e.ScoreCandidates(ctx, one, posEx, negEx, len(posEx), 1)[0]; r.Exact || r.Score != (Score{}) {
			t.Errorf("candidate %d: impossible floor scored %+v (exact=%v)", ci, r.Score, r.Exact)
		}
		if full.Value() < len(posEx) {
			// Flooring at the candidate's own value closes the bound; unless
			// the closing test happens to be the batch's final item this is
			// an early exit. An exact result must still match the full score.
			r := e.ScoreCandidates(ctx, one, posEx, negEx, full.Value(), 1)[0]
			if r.Exact && r.Score != full {
				t.Errorf("candidate %d: floored exact score %+v, want %+v", ci, r.Score, full)
			}
			if !r.Exact {
				earlyExits++
			}
		}
	}
	if earlyExits == 0 {
		t.Error("no candidate triggered a mid-batch early exit; the bound is not being applied")
	}
}
