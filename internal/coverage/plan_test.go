package coverage

import (
	"context"
	"reflect"
	"testing"

	"dlearn/internal/logic"
	"dlearn/internal/relation"
	"dlearn/internal/subsumption"
)

// planTestExamples prepares the movie examples (positives: all three
// highGrossing candidates; negatives reuse the same grounds) on the given
// evaluator.
func planTestExamples(t *testing.T, e *Evaluator) []*Example {
	t.Helper()
	b := builderFor(false)
	var grounds []logic.Clause
	for _, title := range []string{"Superbad", "Zoolander", "Orphanage"} {
		g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", title))
		if err != nil {
			t.Fatal(err)
		}
		grounds = append(grounds, g)
	}
	exs, err := e.NewExamples(context.Background(), grounds)
	if err != nil {
		t.Fatal(err)
	}
	return exs
}

// TestScoringPlannerInvariance pins the planner's permutation property at
// the scoring layer: every score computed through the probe-based paths is
// identical with the planner on and off.
func TestScoringPlannerInvariance(t *testing.T) {
	ctx := context.Background()
	on := NewEvaluator(Options{Threads: 2})
	off := NewEvaluator(Options{Threads: 2, Subsumption: subsumption.Options{DisablePlanner: true}})
	exsOn := planTestExamples(t, on)
	exsOff := planTestExamples(t, off)
	cands := []logic.Clause{comedyClause(), dramaClause()}

	for i, c := range cands {
		sOn := on.ScoreClauseExamples(ctx, c, exsOn, exsOn)
		sOff := off.ScoreClauseExamples(ctx, c, exsOff, exsOff)
		if sOn != sOff {
			t.Errorf("candidate %d: planner-on score %+v != planner-off %+v", i, sOn, sOff)
		}
		bOn, exOn := on.ScoreBatch(ctx, c, exsOn, exsOn, -1<<30)
		bOff, exOff := off.ScoreBatch(ctx, c, exsOff, exsOff, -1<<30)
		if bOn != bOff || exOn != exOff {
			t.Errorf("candidate %d: planner-on batch (%+v,%v) != planner-off (%+v,%v)", i, bOn, exOn, bOff, exOff)
		}
	}
	// Serial scheduling makes every result field deterministic, so the
	// whole result slice must match. In parallel the Exact flags and partial
	// tallies of candidates overtaken mid-flight depend on scheduling by
	// design, so only the selection the learner makes from them is pinned.
	serialOn := NewEvaluator(Options{Threads: 1})
	serialOff := NewEvaluator(Options{Threads: 1, Subsumption: subsumption.Options{DisablePlanner: true}})
	rOn := serialOn.ScoreCandidates(ctx, cands, planTestExamples(t, serialOn), nil, -1<<30, 1)
	rOff := serialOff.ScoreCandidates(ctx, cands, planTestExamples(t, serialOff), nil, -1<<30, 1)
	if !reflect.DeepEqual(rOn, rOff) {
		t.Errorf("serial ScoreCandidates diverged: planner-on %+v, planner-off %+v", rOn, rOff)
	}
	pOn := on.ScoreCandidates(ctx, cands, exsOn, nil, -1<<30, 2)
	pOff := off.ScoreCandidates(ctx, cands, exsOff, nil, -1<<30, 2)
	iOn, bestOn, okOn := BestCandidate(pOn, -1<<30)
	iOff, bestOff, okOff := BestCandidate(pOff, -1<<30)
	if iOn != iOff || bestOn != bestOff || okOn != okOff {
		t.Errorf("parallel ScoreCandidates selected differently: planner-on (%d, %+v, %v), planner-off (%d, %+v, %v)",
			iOn, bestOn, okOn, iOff, bestOff, okOff)
	}
}

// TestPlanCountersAccumulate pins the plan telemetry: probe-based scoring
// advances the evaluator's counters, planned probes only when the planner is
// enabled.
func TestPlanCountersAccumulate(t *testing.T) {
	ctx := context.Background()
	on := NewEvaluator(Options{Threads: 2})
	exs := planTestExamples(t, on)
	if snap := on.PlanSnapshot(); snap.Probes != 0 || snap.Planned != 0 || snap.Nodes != 0 {
		t.Fatalf("fresh evaluator has nonzero plan counters: %+v", snap)
	}
	on.ScoreClauseExamples(ctx, comedyClause(), exs, exs)
	snap := on.PlanSnapshot()
	if snap.Probes == 0 || snap.Planned == 0 || snap.Nodes == 0 {
		t.Fatalf("planner-on scoring left counters empty: %+v", snap)
	}
	if snap.Planned > snap.Probes {
		t.Fatalf("planned %d exceeds probes %d", snap.Planned, snap.Probes)
	}

	off := NewEvaluator(Options{Threads: 2, Subsumption: subsumption.Options{DisablePlanner: true}})
	exsOff := planTestExamples(t, off)
	off.ScoreClauseExamples(ctx, comedyClause(), exsOff, exsOff)
	snapOff := off.PlanSnapshot()
	if snapOff.Probes == 0 || snapOff.Nodes == 0 {
		t.Fatalf("planner-off scoring left counters empty: %+v", snapOff)
	}
	if snapOff.Planned != 0 {
		t.Fatalf("planner-off scoring planned %d probes", snapOff.Planned)
	}
}

// TestComparePlannerOrder sanity-checks the differential measurement: every
// (candidate, example) pair is probed, the tallies partition the probes, and
// outcomes never diverge on these budget-free workloads.
func TestComparePlannerOrder(t *testing.T) {
	e := NewEvaluator(Options{Threads: 2})
	exs := planTestExamples(t, e)
	cands := []logic.Clause{comedyClause(), dramaClause()}
	cmp := e.ComparePlannerOrder(context.Background(), cands, exs)
	if want := len(cands) * len(exs); cmp.Probes != want {
		t.Fatalf("compared %d probes, want %d", cmp.Probes, want)
	}
	if cmp.Wins+cmp.Losses+cmp.Ties != cmp.Probes {
		t.Fatalf("tallies do not partition the probes: %+v", cmp)
	}
	if cmp.Divergences != 0 {
		t.Fatalf("planner changed probe outcomes: %+v", cmp)
	}
	if cmp.BudgetHits != 0 {
		t.Fatalf("default budget exhausted on the tiny movie probes: %+v", cmp)
	}
	if cmp.PlannedNodes <= 0 || cmp.FixedNodes <= 0 {
		t.Fatalf("node totals empty: %+v", cmp)
	}
	if cmp.NodesSaved() != cmp.FixedNodes-cmp.PlannedNodes {
		t.Fatalf("NodesSaved inconsistent: %+v", cmp)
	}
	if rate := cmp.WinRate(); rate < 0 || rate > 1 {
		t.Fatalf("win rate %v out of range", rate)
	}
	if (PlanComparison{}).WinRate() != 0 {
		t.Fatal("empty comparison must report win rate 0")
	}
}
