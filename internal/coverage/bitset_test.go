package coverage

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dlearn/internal/logic"
)

// indices lists the marked indices of a bitmap in ascending order, walking
// it with Next.
func indices(b *Bits) []int {
	var out []int
	for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

// TestBitsMatchesReference is the property test for the bitmap: a long
// random op sequence applied to a Bits and to a map-based reference set must
// agree on every observation, across sizes that cover the word-boundary
// edge cases.
func TestBitsMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 65, 130, 200} {
		rng := rand.New(rand.NewSource(int64(n) + 42))
		// randomMask marks each index with probability 1/k.
		randomMask := func(k int) []bool {
			mask := make([]bool, n)
			for i := range mask {
				mask[i] = rng.Intn(k) == 0
			}
			return mask
		}
		b := FullBits(n)
		ref := make(map[int]bool)
		for i := 0; i < n; i++ {
			ref[i] = true
		}
		check := func(step int) {
			if got, want := b.Count(), len(ref); got != want {
				t.Fatalf("n=%d step %d: Count = %d, want %d", n, step, got, want)
			}
			if got, want := b.Any(), len(ref) > 0; got != want {
				t.Fatalf("n=%d step %d: Any = %v, want %v", n, step, got, want)
			}
			// Next from every start must land on the first reference index
			// at or after it.
			next := -1
			for from := n; from >= 0; from-- {
				if ref[from] {
					next = from
				}
				if got := b.Next(from); got != next {
					t.Fatalf("n=%d step %d: Next(%d) = %d, want %d", n, step, from, got, next)
				}
			}
		}
		check(-1)
		for step := 0; step < 300; step++ {
			if n == 0 {
				break
			}
			switch rng.Intn(4) {
			case 0:
				i := rng.Intn(n)
				b.Clear(i)
				delete(ref, i)
			case 1: // AndNot with a random bitmap
				mask := randomMask(3)
				for i, set := range mask {
					if set {
						delete(ref, i)
					}
				}
				b.AndNot(bitsFromMask(mask))
			case 2: // rebuild from a random mask
				mask := randomMask(2)
				ref = make(map[int]bool)
				for i, set := range mask {
					if set {
						ref[i] = true
					}
				}
				b = bitsFromMask(mask)
			case 3: // refill
				b = FullBits(n)
				for i := 0; i < n; i++ {
					ref[i] = true
				}
			}
			check(step)
		}
	}
}

// TestFullBits checks the all-set constructor across word boundaries.
func TestFullBits(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := FullBits(n)
		if b.Count() != n {
			t.Errorf("FullBits(%d).Count = %d", n, b.Count())
		}
		if got := indices(b); n > 0 && (got[0] != 0 || got[len(got)-1] != n-1) {
			t.Errorf("FullBits(%d) endpoints not set: %v", n, got)
		}
		// No bit beyond n may leak into Count after an AndNot with itself.
		c := FullBits(n)
		c.AndNot(b)
		if c.Any() {
			t.Errorf("FullBits(%d) AndNot itself leaves bits: %v", n, indices(c))
		}
	}
}

// TestCoverageBitsMatchesCoveredExamples checks the parallel bitmap against
// one-shot coverage tests of each example: same clause, same examples, same
// coverage.
func TestCoverageBitsMatchesCoveredExamples(t *testing.T) {
	_, posG, _ := benchExamples(t, 40, 6, 1)
	ctx := context.Background()
	e := NewEvaluator(Options{Threads: 4})
	posEx := mustExamples(t, e, posG)
	for ci, c := range append(benchCandidates(), westernCandidate()) {
		bits := e.CoverageBits(ctx, c, posEx)
		var want []int
		for i, ex := range posEx {
			if e.CoversPositiveExample(ctx, c, ex) {
				want = append(want, i)
			}
		}
		if got := indices(bits); !slices.Equal(got, want) {
			t.Fatalf("candidate %d: CoverageBits = %v, one-shot tests cover %v", ci, got, want)
		}
		if bits.Count() != len(want) {
			t.Fatalf("candidate %d: bitmap count %d, %d covered", ci, bits.Count(), len(want))
		}
	}
}

// TestUncoveredBitmapMatchesRecount is the cross-iteration property test of
// the covering loop's frontier maintenance: simulate the loop's accept
// iterations with real clauses, maintaining uncovered incrementally via
// AndNot, and after every step compare against a from-scratch recount that
// rescores every accepted clause over every example. The two must agree
// bit for bit — this is the invariant that lets the learner never rescore
// an accepted clause.
func TestUncoveredBitmapMatchesRecount(t *testing.T) {
	_, posG, _ := benchExamples(t, 60, 8, 1)
	ctx := context.Background()
	e := NewEvaluator(Options{Threads: 4})
	posEx := mustExamples(t, e, posG)

	var accepted []logic.Clause
	uncovered := FullBits(len(posEx))
	for _, c := range benchCandidates() {
		bits := e.CoverageBits(ctx, c, posEx)
		uncovered.AndNot(bits)
		accepted = append(accepted, c)

		// From-scratch recount: example i is uncovered iff no accepted
		// clause covers it.
		var recount []int
		for i, ex := range posEx {
			coveredByAny := false
			for _, a := range accepted {
				if e.CoversPositiveExample(ctx, a, ex) {
					coveredByAny = true
					break
				}
			}
			if !coveredByAny {
				recount = append(recount, i)
			}
		}
		if got := indices(uncovered); !slices.Equal(got, recount) {
			t.Fatalf("after %d accepted clauses: bitmap says uncovered %v, recount says %v",
				len(accepted), got, recount)
		}
	}
	if !uncovered.Any() && len(posEx) > 0 {
		// The bench candidates cover only the comedy positives plus the
		// over-general clause which covers everything; if everything ended
		// covered the property above was vacuous for the tail. Not an error,
		// but make sure at least one step had a non-trivial frontier.
		t.Log("frontier emptied; property held on every prefix")
	}
}
