package coverage

import (
	"context"
	"sync"

	"dlearn/internal/logic"
	"dlearn/internal/repair"
	"dlearn/internal/subsumption"
)

// probe is the per-candidate state for coverage tests against prepared
// examples: the candidate compiled once (the dominant cost of a fast-path
// θ-subsumption test used to be recompiling it per example), plus lazily
// resolved compilations of its CFD-stripped projection, CFD expansion and
// full repair expansion. The batch paths share one memoized probe per clause
// (Evaluator.probeFor) across workers and batches; one-shot tests build a
// fresh probe that is never stored.
type probe struct {
	e      *Evaluator
	c      logic.Clause
	hasCFD bool
	cand   *subsumption.CompiledCandidate

	mu          sync.Mutex
	stripped    *subsumption.CompiledCandidate
	cfdExp      []*subsumption.CompiledCandidate
	cfdResolved bool
	repaired    []*subsumption.CompiledCandidate
	repResolved bool
}

// newProbe compiles the candidate side of a clause.
func (e *Evaluator) newProbe(c logic.Clause) *probe {
	return &probe{e: e, c: c, hasCFD: clauseHasCFDRepairs(c), cand: subsumption.CompileCandidate(c)}
}

// subsumes issues one instrumented θ-subsumption probe whose work feeds the
// plan telemetry counters.
func (p *probe) subsumes(ctx context.Context, cc *subsumption.CompiledCandidate, prep *subsumption.Prepared, plain bool) bool {
	ok, _, st := cc.Probe(ctx, prep, plain)
	p.e.addProbeStats(st)
	return ok
}

// strippedCand returns the compiled CFD-stripped projection of the
// candidate, resolving it on first use.
func (p *probe) strippedCand() *subsumption.CompiledCandidate {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stripped == nil {
		p.stripped = subsumption.CompileCandidate(stripCFDConnected(p.c))
	}
	return p.stripped
}

// cfdCands returns the compiled CFD expansion of the candidate.
func (p *probe) cfdCands(ctx context.Context) []*subsumption.CompiledCandidate {
	opts := p.e.repOpts
	opts.Origin = logic.OriginCFD
	return p.expansion(ctx, opts, &p.cfdExp, &p.cfdResolved)
}

// repairedCands returns the compiled full repair expansion of the candidate.
func (p *probe) repairedCands(ctx context.Context) []*subsumption.CompiledCandidate {
	return p.expansion(ctx, p.e.repOpts, &p.repaired, &p.repResolved)
}

// expansion returns the compiled repair expansion of the candidate under
// opts, resolving it into *dst on first use. An expansion truncated by
// cancellation is returned but not kept, so the next call recomputes it.
func (p *probe) expansion(ctx context.Context, opts repair.Options, dst *[]*subsumption.CompiledCandidate, resolved *bool) []*subsumption.CompiledCandidate {
	p.mu.Lock()
	defer p.mu.Unlock()
	if *resolved {
		return *dst
	}
	clauses := p.e.expand(ctx, p.c, opts)
	out := make([]*subsumption.CompiledCandidate, len(clauses))
	for i, c := range clauses {
		out[i] = subsumption.CompileCandidate(c)
	}
	if ctx.Err() == nil {
		*dst, *resolved = out, true
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
