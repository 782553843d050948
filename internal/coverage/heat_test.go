package coverage

import (
	"context"
	"testing"
)

// evaluatorWithDecay builds an evaluator whose heat-decay period is pinned:
// non-positive disables decay.
func evaluatorWithDecay(threads, interval int) *Evaluator {
	e := NewEvaluator(Options{Threads: threads})
	e.heatDecay = interval
	return e
}

// TestHeatDecayBoundsCounters pins the heat decay: with decay
// disabled the hit counters grow monotonically with every batch (the
// pre-decay behavior), while a decaying evaluator halves them periodically
// so they track recent batches instead of the whole process history.
func TestHeatDecayBoundsCounters(t *testing.T) {
	ctx := context.Background()
	_, posG, negG := benchExamples(t, 40, 4, 4)
	const rounds = 10

	// Disabled decay: the western candidate misses every positive in every
	// batch, so heat is exactly the batch count.
	e := evaluatorWithDecay(1, -1)
	posEx := mustExamples(t, e, posG)
	negEx := mustExamples(t, e, negG)
	for r := 0; r < rounds; r++ {
		e.ScoreBatch(ctx, westernCandidate(), posEx, negEx, -1<<30)
	}
	for i, ex := range posEx {
		if ex.Heat() != rounds {
			t.Errorf("decay disabled: positive %d heat = %d, want %d", i, ex.Heat(), rounds)
		}
	}

	// Decay every batch: each round adds one miss and then halves, so the
	// counter can never exceed one — the long-lived process stays responsive
	// to recent behavior instead of accumulating forever.
	e = evaluatorWithDecay(1, 1)
	posEx = mustExamples(t, e, posG)
	negEx = mustExamples(t, e, negG)
	for r := 0; r < rounds; r++ {
		e.ScoreBatch(ctx, westernCandidate(), posEx, negEx, -1<<30)
	}
	for i, ex := range posEx {
		if ex.Heat() > 1 {
			t.Errorf("decay interval 1: positive %d heat = %d, want <= 1", i, ex.Heat())
		}
	}
}

// TestHeatDecayDefaultInterval checks every evaluator decays with the
// default period.
func TestHeatDecayDefaultInterval(t *testing.T) {
	if e := NewEvaluator(Options{}); e.heatDecay != DefaultHeatDecayInterval {
		t.Fatalf("heatDecay = %d, want default %d", e.heatDecay, DefaultHeatDecayInterval)
	}
}

// TestHeatDecayKeepsScoresExact verifies decay is a scheduling-only
// mechanism: scores from a decaying evaluator match the non-decaying one.
func TestHeatDecayKeepsScoresExact(t *testing.T) {
	ctx := context.Background()
	_, posG, negG := benchExamples(t, 40, 6, 6)
	cands := benchCandidates()
	plain := evaluatorWithDecay(2, -1)
	decaying := evaluatorWithDecay(2, 1)
	posA := mustExamples(t, plain, posG)
	negA := mustExamples(t, plain, negG)
	posB := mustExamples(t, decaying, posG)
	negB := mustExamples(t, decaying, negG)
	for r := 0; r < 3; r++ {
		for _, c := range cands {
			sa, ea := plain.ScoreBatch(ctx, c, posA, negA, -1<<30)
			sb, eb := decaying.ScoreBatch(ctx, c, posB, negB, -1<<30)
			if !ea || !eb || sa != sb {
				t.Fatalf("round %d: decay changed scoring: (%+v,%v) vs (%+v,%v)", r, sa, ea, sb, eb)
			}
		}
	}
}
