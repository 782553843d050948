package coverage

import "dlearn/internal/subsumption"

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
	// mismatches — carry no plan).
	Planned int64
	// Nodes is the total number of backtracking-search nodes explored.
	Nodes int64
	// Exhausted is how many of those probes hit the subsumption node budget
	// (or were cancelled mid-search). Their "does not subsume" answer is
	// conservative, not definitive.
	Exhausted int64
	// Truncated is how many repaired-clause expansions — of prepared
	// examples and of candidates — repair.Options.MaxStates or MaxClauses
	// (or cancellation) cut short, so that a negative-coverage or CFD test
	// ran on an incomplete set of repaired clauses. Examples served from a
	// snapshot store are not expanded again and add nothing.
	Truncated int64
}

// PlanSnapshot returns the evaluator's cumulative plan telemetry.
func (e *Evaluator) PlanSnapshot() PlanCounters {
	return PlanCounters{
		Probes:    e.planProbes.Load(),
		Planned:   e.planPlanned.Load(),
		Nodes:     e.planNodes.Load(),
		Exhausted: e.planExhausted.Load(),
		Truncated: e.planTruncated.Load(),
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
