package coverage

import (
	"context"
	"math/bits"

	"dlearn/internal/logic"
)

// Bits is a compact bitmap over example indices: one bit per example of a
// fixed-size example set. The covering loop keeps the set of still-uncovered
// positive examples as a Bits and subtracts each accepted clause's coverage
// bitmap from it, so coverage computed once (during the acceptance test) is
// never recomputed from scratch in a later iteration.
//
// A Bits is not safe for concurrent mutation; the parallel coverage APIs
// build the bitmap from a per-index mask after the workers finish.
type Bits struct {
	n     int
	words []uint64
}

// newBits returns an empty bitmap over n example indices.
func newBits(n int) *Bits {
	return &Bits{n: n, words: make([]uint64, (n+63)/64)}
}

// FullBits returns a bitmap over n example indices with every bit set — the
// initial "all positives uncovered" state of the covering loop.
func FullBits(n int) *Bits {
	b := newBits(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (uint64(1) << r) - 1
	}
	return b
}

// bitsFromMask packs a per-index boolean mask into a bitmap.
func bitsFromMask(mask []bool) *Bits {
	b := newBits(len(mask))
	for i, set := range mask {
		if set {
			b.words[i/64] |= uint64(1) << (i % 64)
		}
	}
	return b
}

// Clear unmarks index i.
func (b *Bits) Clear(i int) { b.words[i/64] &^= uint64(1) << (i % 64) }

// Count returns the number of marked indices.
func (b *Bits) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether at least one index is marked.
func (b *Bits) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// AndNot removes every index marked in o (b &^= o). The bitmaps must cover
// the same example set.
func (b *Bits) AndNot(o *Bits) {
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// Next returns the first marked index ≥ from, or -1 if there is none.
func (b *Bits) Next(from int) int {
	if from < 0 {
		from = 0
	}
	for from < b.n {
		w := b.words[from/64] >> (from % 64)
		if w != 0 {
			i := from + bits.TrailingZeros64(w)
			if i >= b.n {
				return -1
			}
			return i
		}
		from = (from/64 + 1) * 64
	}
	return -1
}

// CoverageBits returns the positive-coverage bitmap of a clause over a
// prepared example set, evaluating on the worker pool: bit i is set iff the
// clause covers exs[i] as a positive example. The covering loop calls this
// once per accepted clause — the acceptance test's positive count is the
// bitmap's Count, and subtracting the bitmap from the uncovered set replaces
// re-scoring the clause in later iterations. A cancelled context returns a
// partial bitmap; callers check ctx.Err() before trusting it.
func (e *Evaluator) CoverageBits(ctx context.Context, c logic.Clause, exs []*Example) *Bits {
	p := e.probeFor(c)
	mask := e.maskParallelExamples(ctx, exs, func(ex *Example) bool { return p.coversPositive(ctx, ex) })
	return bitsFromMask(mask)
}
