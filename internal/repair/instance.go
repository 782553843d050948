package repair

import (
	"fmt"
	"sort"

	"dlearn/internal/constraints"
	"dlearn/internal/relation"
	"dlearn/internal/similarity"
)

// MinimalCFDRepair repairs every CFD violation in the instance by value
// modification, choosing for each violating group the most frequent
// right-hand-side value (ties broken lexicographically) — the minimal-repair
// heuristic the paper uses for the DLearn-Repaired baseline. The input is
// not modified; the repaired clone is returned along with the number of
// field modifications performed.
func MinimalCFDRepair(in *relation.Instance, cfds []constraints.CFD) (*relation.Instance, int, error) {
	out := in.Clone()
	schema := out.Schema()
	modifications := 0
	// Repairing one CFD can introduce violations of another (Section 4.1),
	// so iterate to a fixed point with a safety cap.
	for round := 0; round < len(cfds)+4; round++ {
		changed := false
		for _, cfd := range cfds {
			rhs := cfd.RHSIndex(schema)
			if rhs < 0 {
				continue
			}
			viols := cfd.FindViolations(out)
			if len(viols) == 0 {
				continue
			}
			// Group violating tuples by their left-hand-side key and rewrite
			// the RHS of every tuple in the group to the majority value that
			// matches the pattern (or to the pattern constant).
			groups := make(map[string][]int)
			lhs := cfd.LHSIndexes(schema)
			tuples := out.Tuples(cfd.Relation)
			seen := make(map[int]bool)
			for _, v := range viols {
				for _, p := range []int{v.PosA, v.PosB} {
					if seen[p] {
						continue
					}
					seen[p] = true
					key := ""
					for _, li := range lhs {
						key += tuples[p].Values[li] + "\x1f"
					}
					groups[key] = append(groups[key], p)
				}
			}
			for _, positions := range groups {
				target := pickRepairValue(cfd, tuples, positions, rhs)
				for _, p := range positions {
					if tuples[p].Values[rhs] != target {
						if err := out.SetValueAt(cfd.Relation, p, rhs, target); err != nil {
							return nil, modifications, err
						}
						modifications++
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	for _, cfd := range cfds {
		if !cfd.Satisfied(out) {
			return nil, modifications, fmt.Errorf("repair: MinimalCFDRepair left violations of %s", cfd.Name)
		}
	}
	return out, modifications, nil
}

// pickRepairValue chooses the value all RHS fields of a violating group are
// set to: the pattern constant when the CFD requires one, otherwise the most
// frequent existing value (ties broken lexicographically).
func pickRepairValue(cfd constraints.CFD, tuples []relation.Tuple, positions []int, rhs int) string {
	if p := cfd.PatternOf(cfd.RHS); p != constraints.Wildcard {
		return p
	}
	counts := make(map[string]int)
	for _, p := range positions {
		counts[tuples[p].Values[rhs]]++
	}
	best, bestCount := "", -1
	vals := make([]string, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	for _, v := range vals {
		if counts[v] > bestCount {
			best, bestCount = v, counts[v]
		}
	}
	return best
}

// ResolveBestMatch implements the Castor-Clean preprocessing baseline: for
// every MD, each value of the right matched attribute is unified with the
// single most similar value of the left matched attribute (when it reaches
// the threshold under Combined(opts)), by rewriting the right value to the
// left one. The result joins exactly on the formerly heterogeneous
// attributes.
func ResolveBestMatch(in *relation.Instance, mds []constraints.MD, opts similarity.Options, threshold float64) *relation.Instance {
	out := in.Clone()
	schema := out.Schema()
	for _, md := range mds {
		lm, rm := md.MatchIndexes(schema)
		if lm < 0 || rm < 0 {
			continue
		}
		leftValues := out.DistinctValues(md.LeftRel, lm)
		idx := similarity.NewIndex(leftValues, opts, threshold)
		for _, rv := range out.DistinctValues(md.RightRel, rm) {
			matches := idx.TopK(rv, 1)
			if len(matches) == 0 || matches[0].Value == rv {
				continue
			}
			out.ReplaceValue(md.RightRel, rm, rv, matches[0].Value)
		}
	}
	return out
}
