package repair

import (
	"fmt"
	"sort"

	"dlearn/internal/constraints"
	"dlearn/internal/relation"
	"dlearn/internal/similarity"
)

// FreshValue returns the fresh value v_{a,b} created by matching values a
// and b (Section 2.2). The construction is deterministic and order
// insensitive so repeated enforcement converges.
func FreshValue(a, b string) string {
	if a == b {
		return a
	}
	if b < a {
		a, b = b, a
	}
	return "<" + a + "|" + b + ">"
}

// mdMatch is a pending MD enforcement: tuple positions in the left and right
// relations whose matched attribute values differ but whose compared
// attributes are similar.
type mdMatch struct {
	md           constraints.MD
	leftPos      int
	rightPos     int
	leftVal      string
	rightVal     string
	leftMatchAt  int
	rightMatchAt int
}

// findMDMatches returns every pending MD enforcement in the instance, in a
// deterministic order. sim decides the ≈ operator. Fresh values (created by
// earlier enforcements) are only similar to themselves, mirroring the
// clause-level semantics where the similarity of a fresh value to other
// values is unknown.
func findMDMatches(in *relation.Instance, mds []constraints.MD, sim *similarity.PairCache) []mdMatch {
	var out []mdMatch
	schema := in.Schema()
	for _, md := range mds {
		leftIdx := md.LeftAttrIndexes(schema)
		rightIdx := md.RightAttrIndexes(schema)
		lm, rm := md.MatchIndexes(schema)
		if lm < 0 || rm < 0 {
			continue
		}
		left := in.Tuples(md.LeftRel)
		right := in.Tuples(md.RightRel)
		for i, lt := range left {
			for j, rt := range right {
				if lt.Values[lm] == rt.Values[rm] {
					continue
				}
				matched := true
				for k := range leftIdx {
					a, b := lt.Values[leftIdx[k]], rt.Values[rightIdx[k]]
					if isFresh(a) || isFresh(b) {
						if a != b {
							matched = false
							break
						}
						continue
					}
					if !sim.Similar(a, b) {
						matched = false
						break
					}
				}
				if matched {
					out = append(out, mdMatch{
						md: md, leftPos: i, rightPos: j,
						leftVal: lt.Values[lm], rightVal: rt.Values[rm],
						leftMatchAt: lm, rightMatchAt: rm,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.md.Name != b.md.Name {
			return a.md.Name < b.md.Name
		}
		if a.leftPos != b.leftPos {
			return a.leftPos < b.leftPos
		}
		return a.rightPos < b.rightPos
	})
	return out
}

func isFresh(v string) bool {
	return len(v) >= 2 && v[0] == '<' && v[len(v)-1] == '>'
}

// enforce applies one MD enforcement step (Definition 2.2) on a clone-free
// basis: it mutates the given instance.
func enforce(in *relation.Instance, m mdMatch) {
	fresh := FreshValue(m.leftVal, m.rightVal)
	_ = in.SetValueAt(m.md.LeftRel, m.leftPos, m.leftMatchAt, fresh)
	_ = in.SetValueAt(m.md.RightRel, m.rightPos, m.rightMatchAt, fresh)
}

// StableInstance produces one stable instance of the input (Section 2.2) by
// repeatedly enforcing pending MD matches in deterministic order until no
// match remains. The input instance is not modified. maxSteps bounds the
// number of enforcement steps (0 means a generous default proportional to
// the instance size).
func StableInstance(in *relation.Instance, mds []constraints.MD, sim *similarity.PairCache, maxSteps int) (*relation.Instance, error) {
	out := in.Clone()
	if maxSteps <= 0 {
		maxSteps = 10 * (in.TotalTuples() + 1)
	}
	for step := 0; ; step++ {
		matches := findMDMatches(out, mds, sim)
		if len(matches) == 0 {
			return out, nil
		}
		if step >= maxSteps {
			return nil, fmt.Errorf("repair: StableInstance did not converge within %d steps", maxSteps)
		}
		enforce(out, matches[0])
	}
}

// EnumerateStableInstances returns up to limit distinct stable instances of
// the input, exploring different orders of MD enforcement. It is intended
// for small instances (tests of Theorems 4.11/4.12 and the semantics
// examples); the number of stable instances grows exponentially in general.
func EnumerateStableInstances(in *relation.Instance, mds []constraints.MD, sim *similarity.PairCache, limit int) []*relation.Instance {
	if limit <= 0 {
		limit = 16
	}
	results := make(map[string]*relation.Instance)
	visited := make(map[string]bool)
	var explore func(cur *relation.Instance, depth int)
	explore = func(cur *relation.Instance, depth int) {
		if len(results) >= limit || depth > 12 {
			return
		}
		key := instanceKey(cur)
		if visited[key] {
			return
		}
		visited[key] = true
		matches := findMDMatches(cur, mds, sim)
		if len(matches) == 0 {
			results[key] = cur
			return
		}
		for _, m := range matches {
			next := cur.Clone()
			enforce(next, m)
			explore(next, depth+1)
			if len(results) >= limit {
				return
			}
		}
	}
	explore(in.Clone(), 0)
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*relation.Instance, 0, len(keys))
	for _, k := range keys {
		out = append(out, results[k])
	}
	return out
}

func instanceKey(in *relation.Instance) string {
	var keys []string
	for _, rel := range in.Schema().Names() {
		for _, t := range in.Tuples(rel) {
			keys = append(keys, t.Key())
		}
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + ";"
	}
	return out
}

// IsStable reports whether the instance has no pending MD enforcement.
func IsStable(in *relation.Instance, mds []constraints.MD, sim *similarity.PairCache) bool {
	return len(findMDMatches(in, mds, sim)) == 0
}

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
