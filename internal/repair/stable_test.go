package repair

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"dlearn/internal/constraints"
	"dlearn/internal/relation"
	"dlearn/internal/similarity"
)

// This file holds the instance-level MD semantics of Section 2.2 as a
// test-only oracle: enforcing MD matches on a materialized instance until it
// is stable, and enumerating the distinct stable instances (the repairs) of
// a small instance. Learning never materializes repairs — coverage is decided
// on ground bottom clauses (Section 4.3) — so no production path calls it.

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
func findMDMatches(in *relation.Instance, mds []constraints.MD, sim func(a, b string) bool) []mdMatch {
	var out []mdMatch
	schema := in.Schema()
	for _, md := range mds {
		leftIdx := md.Reverse().RightAttrIndexes(schema)
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
					if !sim(a, b) {
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
func StableInstance(in *relation.Instance, mds []constraints.MD, sim func(a, b string) bool, maxSteps int) (*relation.Instance, error) {
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
func EnumerateStableInstances(in *relation.Instance, mds []constraints.MD, sim func(a, b string) bool, limit int) []*relation.Instance {
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
func IsStable(in *relation.Instance, mds []constraints.MD, sim func(a, b string) bool) bool {
	return len(findMDMatches(in, mds, sim)) == 0
}

// --- stable-instance tests ----------------------------------------------

// newSim is the ≈ operator of the stable-instance tests: the default
// combined similarity at threshold 0.55, with equal values always similar.
func newSim() func(a, b string) bool {
	sim := similarity.Combined(similarity.DefaultOptions())
	return func(a, b string) bool { return a == b || sim(a, b) >= 0.55 }
}

func TestFreshValue(t *testing.T) {
	if FreshValue("a", "a") != "a" {
		t.Error("matching a value with itself should not create a fresh value")
	}
	if FreshValue("a", "b") != FreshValue("b", "a") {
		t.Error("FreshValue must be symmetric")
	}
	if !isFresh(FreshValue("a", "b")) {
		t.Error("fresh values must be recognizable")
	}
}

func TestStableInstanceSingleMatch(t *testing.T) {
	in := relation.NewInstance(moviesSchema())
	in.MustInsert("movies", "m1", "Superbad (2007)", "2007")
	in.MustInsert("highBudgetMovies", "Superbad")
	stable, err := StableInstance(in, []constraints.MD{titleMD()}, newSim(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lt := stable.Tuples("movies")[0].Values[1]
	rt := stable.Tuples("highBudgetMovies")[0].Values[0]
	if lt != rt {
		t.Errorf("matched titles should be unified: %q vs %q", lt, rt)
	}
	if !IsStable(stable, []constraints.MD{titleMD()}, newSim()) {
		t.Error("result of StableInstance must be stable")
	}
	if IsStable(in, []constraints.MD{titleMD()}, newSim()) {
		t.Error("original instance should not be stable")
	}
	// The original instance is untouched.
	if in.Tuples("movies")[0].Values[1] != "Superbad (2007)" {
		t.Error("StableInstance must not modify its input")
	}
}

func TestEnumerateStableInstancesExample23(t *testing.T) {
	// Example 2.3: 'Star Wars' matches two different movies, so there are two
	// stable instances.
	in := relation.NewInstance(moviesSchema())
	in.MustInsert("movies", "10", "Star Wars: Episode IV - 1977", "1977")
	in.MustInsert("movies", "40", "Star Wars: Episode III - 2005", "2005")
	in.MustInsert("highBudgetMovies", "Star Wars")
	stables := EnumerateStableInstances(in, []constraints.MD{titleMD()}, newSim(), 8)
	if len(stables) != 2 {
		for _, s := range stables {
			t.Logf("stable instance:\n%v%v", s.Tuples("movies"), s.Tuples("highBudgetMovies"))
		}
		t.Fatalf("Example 2.3 should have exactly 2 stable instances, got %d", len(stables))
	}
	for _, s := range stables {
		if !IsStable(s, []constraints.MD{titleMD()}, newSim()) {
			t.Error("enumerated instance is not stable")
		}
		// Exactly one of the two movie titles is unified with the BOM title.
		hb := s.Tuples("highBudgetMovies")[0].Values[0]
		unified := 0
		for _, mt := range s.Tuples("movies") {
			if mt.Values[1] == hb {
				unified++
			}
		}
		if unified != 1 {
			t.Errorf("the BOM title should be unified with exactly one movie, got %d", unified)
		}
	}
}

// Property: stable instances produced from random small inputs are stable
// and preserve the tuple count.
func TestPropertyStableInstancePreservesTuples(t *testing.T) {
	md := titleMD()
	f := func(titles []uint8) bool {
		if len(titles) > 6 {
			titles = titles[:6]
		}
		in := relation.NewInstance(moviesSchema())
		base := []string{"Star Wars IV", "Star Wars III", "Superbad", "Zoolander"}
		for i, b := range titles {
			in.MustInsert("movies", "m"+string(rune('0'+i)), base[int(b)%len(base)]+" (extended)", "2000")
		}
		in.MustInsert("highBudgetMovies", "Star Wars")
		stable, err := StableInstance(in, []constraints.MD{md}, newSim(), 0)
		if err != nil {
			return false
		}
		return stable.TotalTuples() == in.TotalTuples() &&
			IsStable(stable, []constraints.MD{md}, newSim())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
