package coverage

import (
	"context"
	"sync"

	"dlearn/internal/logic"
	"dlearn/internal/subsumption"
)

// Example is a training or test example prepared for repeated coverage
// testing: its ground bottom clause with the subsumed side precompiled, its
// CFD-only repair expansion (Section 4.3), its full repaired-clause
// expansion (used for negative coverage, Definition 3.6), and the MD-only
// projection G_md^e. Preparing an example once and probing it with thousands
// of candidate clauses is what makes the covering search practical. A
// prepared Example is read-only apart from its once-resolved CFD side, so
// any number of workers and concurrent batches may probe it at once.
type Example struct {
	// Ground is the ground bottom clause of the example.
	Ground logic.Clause

	hasCFD bool
	prep   *subsumption.Prepared

	// stripped and cfdExp are the CFD side of the Section 4.3 test, which
	// resolveCFD prepares once (see cfdSide). Learning examples resolve it
	// up front; a classified tuple only on first use, because most
	// predictions are decided by the direct probe.
	cfdOnce    sync.Once
	resolveCFD func(ctx context.Context)
	stripped   *subsumption.Prepared
	cfdExp     []*subsumption.Prepared
	repaired   []*subsumption.Prepared
}

// cfdSide returns the example's MD-only projection and CFD expansion,
// preparing them first if the example defers them.
func (ex *Example) cfdSide(ctx context.Context) (*subsumption.Prepared, []*subsumption.Prepared) {
	if ex.resolveCFD != nil {
		ex.cfdOnce.Do(func() { ex.resolveCFD(ctx) })
	}
	return ex.stripped, ex.cfdExp
}

// NewExample prepares a ground bottom clause for repeated coverage tests.
func (e *Evaluator) NewExample(ctx context.Context, ground logic.Clause) *Example {
	ex := e.newPositiveExample(ground)
	ex.cfdSide(ctx)
	for _, c := range e.expand(ctx, ground, e.repOpts) {
		ex.repaired = append(ex.repaired, e.checker.Prepare(c))
	}
	return ex
}

// newPositiveExample prepares a ground bottom clause for positive coverage
// tests only: the direct-probe side now, the CFD side on first use, and
// never the full repaired expansion that only negative coverage reads.
func (e *Evaluator) newPositiveExample(ground logic.Clause) *Example {
	ex := &Example{
		Ground: ground,
		hasCFD: clauseHasCFDRepairs(ground),
		prep:   e.checker.Prepare(ground),
	}
	ex.resolveCFD = func(ctx context.Context) { e.prepareCFD(ctx, ex) }
	return ex
}

// prepareCFD prepares the CFD side of an example: the MD-only projection
// G_md^e and the CFD-only repair expansion.
func (e *Evaluator) prepareCFD(ctx context.Context, ex *Example) {
	ex.stripped = e.checker.Prepare(stripCFDConnected(ex.Ground))
	cfdOpts := e.repOpts
	cfdOpts.Origin = logic.OriginCFD
	for _, c := range e.expand(ctx, ex.Ground, cfdOpts) {
		ex.cfdExp = append(ex.cfdExp, e.checker.Prepare(c))
	}
}

// NewExamples prepares a batch of ground bottom clauses in parallel. A
// cancelled context returns ctx.Err() alongside the partial batch: the
// result still has one non-nil entry per ground clause (unprocessed entries
// are filled with conservative empty-clause stubs), but a batch returned
// with an error was abandoned mid-preparation and must not be scored.
// Earlier versions swallowed the cancellation and handed the stub-filled
// batch back silently, leaving callers that forgot the ctx.Err() check
// scoring stubs; the explicit error closes that hole.
func (e *Evaluator) NewExamples(ctx context.Context, grounds []logic.Clause) ([]*Example, error) {
	out := make([]*Example, len(grounds))
	e.forEachParallel(ctx, len(grounds), func(i int) {
		out[i] = e.NewExample(ctx, grounds[i])
	})
	// A cancelled pool leaves entries unprocessed. Fill them with stubs so
	// the no-nil-entries invariant holds even for callers that inspect the
	// batch despite the error; the batch is being abandoned, so the stubs
	// only have to answer conservatively (no coverage), never correctly,
	// which keeps the fill O(1) per entry instead of preparing the real
	// clause.
	var empty *subsumption.Prepared
	for i := range out {
		if out[i] == nil {
			if empty == nil {
				empty = e.checker.Prepare(logic.Clause{})
			}
			out[i] = &Example{Ground: grounds[i], prep: empty, stripped: empty}
		}
	}
	return out, ctx.Err()
}

// CoversPositiveExample reports whether clause c covers the prepared
// positive example, following Section 4.3 (see probe.coversPositive). It
// builds a fresh probe that never enters the memo: its caller, the
// generalization scan, tests thousands of one-shot clauses, for which the
// memo's canonical-key render would cost more than the compilation it saves.
// Batch APIs share the clause's memoized probe across examples and workers.
func (e *Evaluator) CoversPositiveExample(ctx context.Context, c logic.Clause, ex *Example) bool {
	return e.newProbe(c).coversPositive(ctx, ex)
}

// CountNegativeExamples counts the prepared examples covered as negatives,
// in parallel.
func (e *Evaluator) CountNegativeExamples(ctx context.Context, c logic.Clause, exs []*Example) int {
	p := e.probeFor(c)
	n := 0
	for _, covered := range e.maskParallelExamples(ctx, exs, func(ex *Example) bool { return p.coversNegative(ctx, ex) }) {
		if covered {
			n++
		}
	}
	return n
}

// DefinitionCoversContext reports whether any clause of the definition
// covers the (positive-style) example whose ground bottom clause is ge. It
// is the prediction rule used when classifying test data: the ground clause
// is prepared once (its CFD side only if a direct probe fails) and probed by
// each clause, whose probe the evaluator memoizes across predictions. A
// cancelled test conservatively reports no coverage (callers check
// ctx.Err()).
func (e *Evaluator) DefinitionCoversContext(ctx context.Context, d *logic.Definition, ge logic.Clause) bool {
	return e.DefinitionCoversExample(ctx, d, e.newPositiveExample(ge))
}

// DefinitionCoversExample reports whether any clause of the definition
// covers the prepared example.
func (e *Evaluator) DefinitionCoversExample(ctx context.Context, d *logic.Definition, ex *Example) bool {
	for _, c := range d.Clauses {
		if e.probeFor(c).coversPositive(ctx, ex) {
			return true
		}
	}
	return false
}

func (e *Evaluator) maskParallelExamples(ctx context.Context, exs []*Example, pred func(*Example) bool) []bool {
	mask := make([]bool, len(exs))
	e.forEachParallel(ctx, len(exs), func(i int) {
		mask[i] = pred(exs[i])
	})
	return mask
}

// forEachParallel runs fn(i) for i in [0, n) on the evaluator's worker pool.
// Workers poll ctx between items and skip the remaining work once it is
// cancelled, so a cancelled batch drains promptly instead of finishing every
// queued coverage test.
func (e *Evaluator) forEachParallel(ctx context.Context, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	workers := e.threads
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				if ctx.Err() != nil {
					break
				}
				fn(i)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
