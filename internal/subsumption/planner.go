package subsumption

// This file implements the per-probe literal planner: before the
// backtracking search starts, the candidate's body literals are greedily
// ordered by estimated selectivity over the connected frontier — at every
// step, among the literals sharing a variable with the already-bound set,
// the one with the smallest candidate image in the prepared example goes
// next. Connectivity gates the frontier because a literal disconnected from
// every binding cannot be filtered by them: placing it early multiplies the
// search space by its full image size without pruning anything, the join-
// order equivalent of a Cartesian product. The exception is a literal with
// at most one image — a pure filter with branching factor ≤ 1 — which is
// always eligible, so cheap fail-fast checks run as early as possible.
//
// θ-subsumption is conjunctive-query evaluation, and this is a statistics-
// free greedy join order: the plan costs O(n²) over the body literals, needs
// no catalogue (the per-probe image sizes ARE the statistics, computed from
// the Prepared example's predicate index), and never changes the search's
// outcome — only how many nodes it explores before finding a match or
// exhausting the alternatives.
//
// Plans are pure permutations: the search still visits exactly the same
// literal set under exactly the same semantics, which the differential test
// battery (fuzz and property tests against a brute-force reference) pins.

// planOrder returns the search order over the per-probe literals as a
// permutation of their indices. At every step the frontier is the set of
// unplanned literals connected to the covered variable set (seed variables
// plus the variables of every literal planned so far) or with at most one
// candidate image; the smallest-image frontier literal is picked, falling
// back to the globally smallest-image literal when the frontier is empty
// (the start of a new clause-graph component). Ties keep the lowest index,
// so the plan is deterministic for a fixed probe. O(n²) in the number of
// body literals.
func planOrder(lits []compiledLit, numVars int, seedVars []int) []int {
	covered := make([]bool, numVars)
	for _, v := range seedVars {
		covered[v] = true
	}
	connectedTo := func(cl compiledLit) bool {
		for _, a := range cl.args {
			if a.varID >= 0 && covered[a.varID] {
				return true
			}
		}
		return false
	}
	used := make([]bool, len(lits))
	out := make([]int, 0, len(lits))
	for len(out) < len(lits) {
		best, bestConn := -1, false
		for i, cl := range lits {
			if used[i] {
				continue
			}
			conn := connectedTo(cl) || len(cl.candidates) <= 1
			switch {
			case best < 0:
				best, bestConn = i, conn
			case conn != bestConn:
				if conn {
					best, bestConn = i, true
				}
			case len(cl.candidates) < len(lits[best].candidates):
				best = i
			}
		}
		used[best] = true
		out = append(out, best)
		for _, a := range lits[best].args {
			if a.varID >= 0 {
				covered[a.varID] = true
			}
		}
	}
	return out
}

// applyPlan permutes the per-probe literals into plan order: the k-th literal
// searched is lits[plan[k]].
func applyPlan(lits []compiledLit, plan []int) []compiledLit {
	out := make([]compiledLit, len(lits))
	for k, i := range plan {
		out[k] = lits[i]
	}
	return out
}
