package coverage

import (
	"context"
	"sort"
	"sync/atomic"

	"dlearn/internal/logic"
)

// ScoreBatch scores one candidate clause over prepared positive and negative
// examples on the evaluator's worker pool, stopping early once the score can
// no longer exceed the caller-supplied floor. The bound is
//
//	PositivesCovered + positives-still-pending - NegativesCovered,
//
// which only shrinks as positives miss and negatives hit; as soon as it drops
// to the floor the candidate provably cannot beat the incumbent and the rest
// of the batch is skipped. The candidate is compiled once before the workers
// start and shared (read-only) by all of them.
//
// Examples are scheduled adaptively: within each tier (positives first,
// then negatives) the batch processes the examples with the highest heat —
// positives that recent candidates missed, negatives that covered recent
// candidates — first, because those are the examples whose outcomes shrink
// the bound. A candidate destined to lose therefore exits after a few hot
// examples instead of wading through the easy ones.
// The ordering never changes an exact result (the tally runs over the whole
// batch) and a non-exact result is discarded by selection either way, so
// adaptivity affects speed only, never what the learner selects.
//
// The boolean result reports whether the batch was scored exactly: true means
// every example was evaluated and the Score is the same value
// ScoreClauseExamples would return; false means the batch stopped early
// (bound proven ≤ floor, or the context was cancelled) and the Score is a
// partial tally whose exact fields depend on scheduling. Selection loops that
// only keep candidates strictly above the floor can therefore discard
// non-exact results without losing determinism.
func (e *Evaluator) ScoreBatch(ctx context.Context, c logic.Clause, pos, neg []*Example, floor int) (Score, bool) {
	return e.scoreBatchDynamic(ctx, c, pos, neg, func() int { return floor })
}

// scoreBatchDynamic is ScoreBatch against a floor that may rise while the
// batch runs: floorFn is re-read at every bound check, so a batch whose
// candidate is overtaken mid-flight (the candidate scheduler raises the
// shared floor when a lower-indexed candidate completes) exits early instead
// of finishing against the stale floor it started with. floorFn must be
// monotone non-decreasing; exactness semantics are unchanged because an
// exact result means every example was evaluated, independent of any floor.
func (e *Evaluator) scoreBatchDynamic(ctx context.Context, c logic.Clause, pos, neg []*Example, floorFn func() int) (Score, bool) {
	nPos, nNeg := len(pos), len(neg)
	if nPos <= floorFn() {
		// Even covering every positive and no negative cannot exceed the
		// floor; skip the whole batch.
		return Score{}, false
	}
	p := e.newProbe(c, true)

	var posCov, posMiss, negCov, done atomic.Int64
	var stopped atomic.Bool
	checkBound := func() {
		if int64(nPos)-posMiss.Load()-negCov.Load() <= int64(floorFn()) {
			stopped.Store(true)
		}
	}
	process := func(i int) {
		if i < nPos {
			if p.coversPositive(ctx, pos[i]) {
				posCov.Add(1)
			} else {
				pos[i].heat.Add(1)
				posMiss.Add(1)
				checkBound()
			}
		} else if p.coversNegative(ctx, neg[i-nPos]) {
			neg[i-nPos].heat.Add(1)
			negCov.Add(1)
			checkBound()
		}
		done.Add(1)
	}

	n := nPos + nNeg
	order := adaptiveOrder(pos, neg)
	e.forEachParallel(ctx, n, func(k int) {
		// Items drained after the bound closes are O(1) no-ops. The bound is
		// also re-checked before each item so a floor that rose since the
		// last bound-closing event (another candidate finished) stops the
		// batch without waiting for one of this batch's own misses.
		if stopped.Load() {
			return
		}
		checkBound()
		if stopped.Load() {
			return
		}
		process(order[k])
	})

	score := Score{PositivesCovered: int(posCov.Load()), NegativesCovered: int(negCov.Load())}
	exact := done.Load() == int64(n) && ctx.Err() == nil
	e.decayHeat(pos, neg)
	return score, exact
}

// decayHeat ages the adaptive-ordering heat counters: every heatDecay-th
// completed batch halves the heat of the examples that batch scored. Without
// decay the counters are monotone, so an example that was hot a million
// batches ago outranks one that is hot now — exactly wrong for a long-lived
// process (a dlearn-serve worker) whose candidate stream drifts. Halving the
// just-scored examples suffices: an example no batch touches anymore cannot
// influence any future order, so its stale heat is harmless. Heat orders
// work only — it never changes an exact score — so the racy read-modify-
// write halving (concurrent batches may add between the load and the store)
// costs at most a lost increment, never correctness.
func (e *Evaluator) decayHeat(pos, neg []*Example) {
	if e.heatDecay <= 0 {
		return
	}
	if e.batches.Add(1)%int64(e.heatDecay) != 0 {
		return
	}
	for _, ex := range pos {
		ex.heat.Store(ex.heat.Load() / 2)
	}
	for _, ex := range neg {
		ex.heat.Store(ex.heat.Load() / 2)
	}
}

// adaptiveOrder returns the processing order of a batch: positives first,
// each tier sorted by heat descending, ties broken by index so a cold batch
// degenerates to the plain positives-then-negatives sweep. The ordering is
// per-tier on purpose: positive misses are the dominant bound-closers (the
// bound starts at len(pos) and a losing candidate must shed most of it), so
// positives always lead; interleaving hot negatives ahead of them was
// measured slower on the coverage bench — a hot negative the current
// candidate does not cover is an expensive probe that shrinks nothing.
// Within the tiers, scheduling recently-missed positives and recently-
// covered negatives first closes the bound sooner. Heat values are
// snapshotted once so concurrent batches updating the counters cannot
// destabilize the sort.
func adaptiveOrder(pos, neg []*Example) []int {
	n := len(pos) + len(neg)
	order := make([]int, n)
	heat := make([]int64, n)
	hotPos, hotNeg := false, false
	for i := range pos {
		order[i] = i
		heat[i] = pos[i].heat.Load()
		hotPos = hotPos || heat[i] != 0
	}
	for i := range neg {
		order[len(pos)+i] = len(pos) + i
		heat[len(pos)+i] = neg[i].heat.Load()
		hotNeg = hotNeg || heat[len(pos)+i] != 0
	}
	byHeatDesc := func(tier []int) {
		sort.SliceStable(tier, func(a, b int) bool {
			return heat[tier[a]] > heat[tier[b]]
		})
	}
	if hotPos {
		byHeatDesc(order[:len(pos)])
	}
	if hotNeg {
		byHeatDesc(order[len(pos):])
	}
	return order
}
