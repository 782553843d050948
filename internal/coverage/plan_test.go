package coverage

import (
	"context"
	"testing"

	"dlearn/internal/logic"
	"dlearn/internal/relation"
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

// TestPlanCountersAccumulate pins the plan telemetry: probe-based scoring
// advances the evaluator's counters, and no more probes are planned than
// issued.
func TestPlanCountersAccumulate(t *testing.T) {
	on := NewEvaluator(Options{Threads: 2})
	exs := planTestExamples(t, on)
	if snap := on.PlanSnapshot(); snap.Probes != 0 || snap.Planned != 0 || snap.Nodes != 0 {
		t.Fatalf("fresh evaluator has nonzero plan counters: %+v", snap)
	}
	fullScore(on, comedyClause(), exs, exs)
	snap := on.PlanSnapshot()
	if snap.Probes == 0 || snap.Planned == 0 || snap.Nodes == 0 {
		t.Fatalf("scoring left counters empty: %+v", snap)
	}
	if snap.Planned > snap.Probes {
		t.Fatalf("planned %d exceeds probes %d", snap.Planned, snap.Probes)
	}
}
