package coverage

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"dlearn/internal/logic"
)

// DefaultCandidateParallelism is the default outer-tier worker count of the
// candidate scheduler: how many independent candidate clauses are scored
// concurrently. Each in-flight candidate runs its batch on the evaluator's
// inner worker pool, so the two tiers together keep Threads × parallelism
// coverage tests in flight — the configuration that keeps 16+ threads busy
// when the example pool is smaller than the thread count.
const DefaultCandidateParallelism = 4

// CandidateResult is the scheduler's verdict on one candidate clause.
type CandidateResult struct {
	// Score is the candidate's coverage score; a partial tally when Exact is
	// false.
	Score Score
	// Exact reports whether every example was evaluated, so that Score is
	// the candidate's full score. False means the batch stopped early (its
	// bound fell to the floor, or the context was cancelled) and Score is a
	// partial tally whose fields depend on scheduling.
	Exact bool
}

// incomplete marks a candidate whose exact value is not (yet) known in the
// scheduler's shared value table.
const incomplete = math.MinInt64

// ScoreCandidates scores the independent candidate clauses of one refinement
// sample concurrently — the outer tier of the two-tier scheduler. Each
// candidate's batch runs on the evaluator's inner worker pool
// (scoreCandidate), taking its examples in index order, positives then
// negatives, and stopping as soon as the candidate provably cannot beat its
// floor. Candidates share the incumbent floor through an atomic value table:
// a candidate early-exits against the best exact score already known for a
// LOWER-indexed candidate.
//
// Restricting the shared floor to lower indices is what makes the result
// independent of scheduling: the serial hill-climb keeps candidate i only if
// its value strictly exceeds every earlier candidate's, so a floor taken
// from any completed j < i prunes only candidates the serial loop would have
// discarded anyway, while a floor from j > i could prune a tie that the
// serial loop (and BestCandidate's lowest-index tie-break) would have
// selected. Selecting the winner with BestCandidate therefore yields the
// same clause for any parallelism and any interleaving, which is what keeps
// learned definitions byte-identical across thread counts.
//
// parallelism ≤ 0 selects the evaluator's configured candidate parallelism.
// The floor is the incumbent's score value; candidates that cannot strictly
// exceed it come back non-exact and are never selected.
func (e *Evaluator) ScoreCandidates(ctx context.Context, cands []logic.Clause, pos, neg []*Example, floor int, parallelism int) []CandidateResult {
	n := len(cands)
	results := make([]CandidateResult, n)
	if n == 0 {
		return results
	}
	parallelism = e.CandidateWorkers(n, parallelism)

	// vals[i] holds candidate i's exact score value once known; incomplete
	// until then. Workers read it lock-free to assemble prefix floors.
	vals := make([]atomic.Int64, n)
	for i := range vals {
		vals[i].Store(incomplete)
	}
	// prefixFloor is the best exact value among completed candidates j < i,
	// never below the incumbent floor. Missing (still-running) predecessors
	// only make the floor lower, i.e. the pruning conservative.
	prefixFloor := func(i int) int {
		f := int64(floor)
		for j := 0; j < i; j++ {
			if v := vals[j].Load(); v != incomplete && v > f {
				f = v
			}
		}
		return int(f)
	}
	score := func(i int) {
		// The floor is re-read live as the batch runs: a candidate started
		// against a low floor exits as soon as a lower-indexed candidate
		// completes with a value its bound cannot beat, instead of finishing
		// against the stale floor it was scheduled with.
		s, exact := e.scoreCandidate(ctx, cands[i], pos, neg, func() int { return prefixFloor(i) })
		results[i] = CandidateResult{Score: s, Exact: exact}
		if exact {
			vals[i].Store(int64(s.Value()))
		}
	}

	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			score(i)
		}
		return results
	}
	// Workers drain candidates in index order so low-indexed candidates —
	// the ones whose values raise everyone else's floor — finish first.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				score(i)
			}
		}()
	}
	wg.Wait()
	return results
}

// scoreCandidate scores one candidate clause over prepared positive and
// negative examples on the evaluator's worker pool, against a floor that may
// rise while the batch runs. The bound
//
//	PositivesCovered + positives-still-pending - NegativesCovered
//
// only shrinks as positives miss and negatives hit; as soon as it drops to
// the floor the candidate provably cannot beat the incumbent and the rest of
// the batch is skipped. floorFn is re-read at every bound check, so a batch
// whose candidate is overtaken mid-flight (a lower-indexed candidate
// completes) exits early instead of finishing against the stale floor it
// started with; floorFn must be monotone non-decreasing. The candidate's
// memoized probe is looked up once before the workers start and shared by
// all of them. The boolean result is CandidateResult.Exact.
func (e *Evaluator) scoreCandidate(ctx context.Context, c logic.Clause, pos, neg []*Example, floorFn func() int) (Score, bool) {
	nPos, nNeg := len(pos), len(neg)
	if nPos <= floorFn() {
		// Even covering every positive and no negative cannot exceed the
		// floor; skip the whole batch.
		return Score{}, false
	}
	p := e.probeFor(c)

	var posCov, posMiss, negCov, done atomic.Int64
	var stopped atomic.Bool
	checkBound := func() {
		if int64(nPos)-posMiss.Load()-negCov.Load() <= int64(floorFn()) {
			stopped.Store(true)
		}
	}
	n := nPos + nNeg
	e.forEachParallel(ctx, n, func(i int) {
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
		if i < nPos {
			if p.coversPositive(ctx, pos[i]) {
				posCov.Add(1)
			} else {
				posMiss.Add(1)
				checkBound()
			}
		} else if p.coversNegative(ctx, neg[i-nPos]) {
			negCov.Add(1)
			checkBound()
		}
		done.Add(1)
	})

	score := Score{PositivesCovered: int(posCov.Load()), NegativesCovered: int(negCov.Load())}
	return score, done.Load() == int64(n) && ctx.Err() == nil
}

// CandidateWorkers returns the outer-tier worker count ScoreCandidates
// actually uses for an n-candidate batch under the requested parallelism
// (≤ 0 selects the evaluator's configured value): never more workers than
// candidates, never fewer than one. Exposed so callers reporting scheduler
// activity (observer events) describe the concurrency that really ran, not
// the configured ceiling.
func (e *Evaluator) CandidateWorkers(n, parallelism int) int {
	if parallelism <= 0 {
		parallelism = e.candPar
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// BestCandidate selects the winning candidate from a scheduler result: the
// lowest-indexed exact result whose value strictly exceeds both the floor
// and every other exact value. This is exactly the clause the serial
// hill-climb keeps (its incumbent is replaced only on strict improvement, so
// the first candidate to attain the maximum wins ties); returning ok=false
// means no candidate improved on the floor.
func BestCandidate(results []CandidateResult, floor int) (idx int, best Score, ok bool) {
	idx = -1
	for i, r := range results {
		if r.Exact && r.Score.Value() > floor {
			floor = r.Score.Value()
			idx, best, ok = i, r.Score, true
		}
	}
	return idx, best, ok
}
