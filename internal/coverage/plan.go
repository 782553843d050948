package coverage

import (
	"context"
	"time"

	"dlearn/internal/logic"
	"dlearn/internal/subsumption"
)

// PlanCounters is the evaluator's cumulative θ-subsumption plan telemetry.
// Counters only grow; callers interested in one batch's work snapshot before
// and after and subtract.
type PlanCounters struct {
	// Probes is the number of θ-subsumption probes issued through the
	// probe-based coverage paths (batch scoring, coverage bitmaps, example
	// counts).
	Probes int64
	// Planned is how many of those probes the literal planner ordered
	// (probes rejected before the search — infeasible literals, head
	// mismatches — carry no plan, and none are planned when the planner is
	// disabled).
	Planned int64
	// Nodes is the total number of backtracking-search nodes explored.
	Nodes int64
	// Exhausted is how many of those probes hit the subsumption node budget
	// (or were cancelled mid-search). Their "does not subsume" answer is
	// conservative, not definitive.
	Exhausted int64
}

// PlanSnapshot returns the evaluator's cumulative plan telemetry.
func (e *Evaluator) PlanSnapshot() PlanCounters {
	return PlanCounters{
		Probes:    e.planProbes.Load(),
		Planned:   e.planPlanned.Load(),
		Nodes:     e.planNodes.Load(),
		Exhausted: e.planExhausted.Load(),
	}
}

// addProbeStats accumulates one probe's work into the plan telemetry.
func (e *Evaluator) addProbeStats(st subsumption.ProbeStats) {
	e.planProbes.Add(1)
	if st.Planned {
		e.planPlanned.Add(1)
	}
	e.planNodes.Add(int64(st.Nodes))
	if st.Exhausted {
		e.planExhausted.Add(1)
	}
}

// PlanComparison is the planner-vs-fixed-order differential tally over a set
// of probes: every (candidate, example) pair probed with the literal planner
// and again in fixed clause order, comparing outcomes (which must agree) and
// search node counts (which the planner exists to shrink).
type PlanComparison struct {
	// Probes is the number of (candidate, example) pairs compared.
	Probes int
	// Wins, Losses and Ties partition the probes by node count: the planner
	// won when its search explored strictly fewer nodes than the fixed
	// order, lost when strictly more, tied otherwise.
	Wins, Losses, Ties int
	// PlannedNodes and FixedNodes are the total search nodes under each
	// order; their difference is the planner's saving.
	PlannedNodes, FixedNodes int64
	// PlanTime is the total time spent computing literal plans.
	PlanTime time.Duration
	// BudgetHits counts probes where at least one of the two searches
	// exhausted its node budget. Such probes still contribute to the node
	// tallies but are excluded from the divergence check: an exhausted
	// search's "no" is conservative, so the two orders may legitimately
	// answer differently.
	BudgetHits int
	// Divergences counts probes whose planner-on and planner-off outcomes
	// disagreed with neither search exhausting its budget. Plans are
	// permutations, so any nonzero value is a bug; the bench harness fails
	// on it.
	Divergences int
}

// WinRate is Wins over the decided probes (wins plus losses), zero when no
// probe was decided. Ties — probes too easy for the order to matter — are
// excluded so the rate measures the probes the planner could influence.
func (pc PlanComparison) WinRate() float64 {
	decided := pc.Wins + pc.Losses
	if decided == 0 {
		return 0
	}
	return float64(pc.Wins) / float64(decided)
}

// NodesSaved is the planner's total node saving versus the fixed order
// (negative if the planner explored more).
func (pc PlanComparison) NodesSaved() int64 { return pc.FixedNodes - pc.PlannedNodes }

// ComparePlannerOrder probes every candidate against every example's
// prepared ground bottom clause twice — literal planner on and off — and
// tallies the differential. It is the measurement behind the plan_* fields
// of BENCH_coverage.json and doubles as an integrity check: outcomes must be
// identical under both orders.
func (e *Evaluator) ComparePlannerOrder(ctx context.Context, cands []logic.Clause, exs []*Example) PlanComparison {
	var out PlanComparison
	for _, c := range cands {
		cc := e.candidateCached(c)
		for _, ex := range exs {
			if ctx.Err() != nil {
				return out
			}
			okPlan, _, stPlan := cc.Probe(ctx, ex.prep, subsumption.ProbeOptions{TimePlan: true})
			okFixed, _, stFixed := cc.Probe(ctx, ex.prep, subsumption.ProbeOptions{NoPlanner: true})
			out.Probes++
			out.PlannedNodes += int64(stPlan.Nodes)
			out.FixedNodes += int64(stFixed.Nodes)
			out.PlanTime += time.Duration(stPlan.PlanNanos)
			switch {
			case stPlan.Nodes < stFixed.Nodes:
				out.Wins++
			case stPlan.Nodes > stFixed.Nodes:
				out.Losses++
			default:
				out.Ties++
			}
			if stPlan.Exhausted || stFixed.Exhausted {
				out.BudgetHits++
			} else if okPlan != okFixed {
				out.Divergences++
			}
		}
	}
	return out
}
