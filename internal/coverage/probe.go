package coverage

import (
	"context"
	"sync"

	"dlearn/internal/logic"
	"dlearn/internal/subsumption"
)

// probe is the per-candidate state for coverage tests against prepared
// examples: the candidate compiled once (the dominant cost of a fast-path
// θ-subsumption test used to be recompiling it per example), plus lazily
// resolved compilations of its CFD-stripped projection, CFD expansion and
// full repair expansion. A probe is resolved once per batch and shared
// read-mostly by all workers; the clause's canonical key is therefore
// computed a constant number of times per batch instead of once per example.
type probe struct {
	e      *Evaluator
	c      logic.Clause
	hasCFD bool
	// cached selects whether compilations go through the evaluator's
	// lock-striped caches (batch scoring, where candidates repeat across
	// batches) or are compiled directly (one-shot tests of clauses that will
	// never be seen again, e.g. the generalization blocking scan).
	cached bool
	cand   *subsumption.CompiledCandidate

	mu          sync.Mutex
	stripped    *subsumption.CompiledCandidate
	cfdExp      []*subsumption.CompiledCandidate
	cfdResolved bool
	repaired    []*subsumption.CompiledCandidate
	repResolved bool
}

// newProbe compiles the candidate side of a clause. cached selects
// evaluator-cache reuse (see probe.cached).
func (e *Evaluator) newProbe(c logic.Clause, cached bool) *probe {
	var cand *subsumption.CompiledCandidate
	if cached {
		cand = e.candidateCached(c)
	} else {
		cand = subsumption.CompileCandidate(c)
	}
	return &probe{
		e: e, c: c,
		hasCFD: clauseHasCFDRepairs(c),
		cached: cached,
		cand:   cand,
	}
}

// subsumes issues one instrumented θ-subsumption probe whose work feeds the
// plan telemetry counters.
func (p *probe) subsumes(ctx context.Context, cc *subsumption.CompiledCandidate, prep *subsumption.Prepared, plain bool) bool {
	ok, _, st := cc.Probe(ctx, prep, plain)
	p.e.addProbeStats(st)
	return ok
}

// compile compiles a derived clause (stripped projection, repair expansion)
// honouring the probe's caching mode.
func (p *probe) compile(c logic.Clause) *subsumption.CompiledCandidate {
	if p.cached {
		return p.e.candidateCached(c)
	}
	return subsumption.CompileCandidate(c)
}

// strippedCand returns the compiled CFD-stripped projection of the
// candidate, resolving it on first use.
func (p *probe) strippedCand() *subsumption.CompiledCandidate {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stripped == nil {
		p.stripped = p.compile(p.e.stripCached(p.c))
	}
	return p.stripped
}

// cfdCands returns the compiled CFD expansion of the candidate. An
// expansion truncated by cancellation is returned but not memoized, matching
// the evaluator cache semantics.
func (p *probe) cfdCands(ctx context.Context) []*subsumption.CompiledCandidate {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfdResolved {
		return p.cfdExp
	}
	clauses := p.e.expandCFD(ctx, p.c)
	out := make([]*subsumption.CompiledCandidate, len(clauses))
	for i, ce := range clauses {
		out[i] = p.compile(ce)
	}
	if ctx.Err() == nil {
		p.cfdExp, p.cfdResolved = out, true
	}
	return out
}

// repairedCands returns the compiled full repair expansion of the candidate,
// with the same truncation semantics as cfdCands.
func (p *probe) repairedCands(ctx context.Context) []*subsumption.CompiledCandidate {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.repResolved {
		return p.repaired
	}
	clauses := p.e.repairedCached(ctx, p.c)
	out := make([]*subsumption.CompiledCandidate, len(clauses))
	for i, cr := range clauses {
		out[i] = p.compile(cr)
	}
	if ctx.Err() == nil {
		p.repaired, p.repResolved = out, true
	}
	return out
}

// coversPositive reports whether the probe's clause c covers the positive
// example, following Section 4.3:
//
//  1. If c θ-subsumes the ground bottom clause (Definition 4.4), it covers
//     the example (Theorem 4.6).
//  2. Otherwise the MD-only parts c_md and G_md^e are compared; if c_md does
//     not subsume G_md^e the example is not covered (Theorem 4.9 makes this
//     exact for MD-only repair literals).
//  3. Otherwise the CFD repair literals of both clauses are applied and the
//     example is covered iff every resulting clause of c subsumes at least
//     one resulting clause of the example.
func (p *probe) coversPositive(ctx context.Context, ex *Example) bool {
	if p.subsumes(ctx, p.cand, ex.prep, false) {
		return true
	}
	if !p.hasCFD && !ex.hasCFD {
		// MD-only clauses: θ-subsumption is necessary as well as sufficient
		// (Theorem 4.9), so the failed check is conclusive.
		return false
	}
	stripped, gExp := ex.cfdSide(ctx)
	if !p.subsumes(ctx, p.strippedCand(), stripped, false) {
		return false
	}
	cExp := p.cfdCands(ctx)
	if len(cExp) == 0 || len(gExp) == 0 {
		return false
	}
	for _, ce := range cExp {
		matched := false
		for _, g := range gExp {
			if p.subsumes(ctx, ce, g, false) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// coversNegative reports whether the probe's clause covers the negative
// example, following Definition 3.6 and Proposition 4.10: c covers the
// example iff some repaired clause of c θ-subsumes some repaired clause of
// the example.
func (p *probe) coversNegative(ctx context.Context, ex *Example) bool {
	for _, cr := range p.repairedCands(ctx) {
		for _, gr := range ex.repaired {
			if p.subsumes(ctx, cr, gr, true) {
				return true
			}
		}
	}
	return false
}
