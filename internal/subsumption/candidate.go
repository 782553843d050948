package subsumption

import (
	"context"

	"dlearn/internal/logic"
)

// CompiledCandidate is the reusable compilation of the subsuming (c) side of
// a θ-subsumption problem: dense variable numbering, compiled literal
// arguments and restriction constraints. The covering search probes one
// candidate clause against hundreds of prepared ground bottom clauses, so
// compiling the candidate once and reusing it across probes removes the
// per-example recompilation that used to dominate each test.
//
// A CompiledCandidate is immutable after CompileCandidate returns and is safe
// for concurrent probing from many goroutines: every probe allocates its own
// search state (candidate images depend on the prepared example, so they are
// computed per probe; the variable numbering and constraints are shared).
type CompiledCandidate struct {
	c logic.Clause

	varIndex map[string]int // c variable name -> dense id
	varNames []string

	// lits are the mappable (relation and repair) literals of c, without
	// per-example candidate images.
	lits []candLit

	// constraints are the restriction literals of c; varConstraints[v] lists
	// the constraint indices mentioning variable v.
	constraints    []compiledConstraint
	varConstraints [][]int

	headVars []int
}

// candLit is one mappable literal of the candidate: its body index, its
// interned predicate-key ID (used to look up images in a Prepared) and
// compiled arguments.
type candLit struct {
	cIndex int
	key    uint32
	args   []compiledTerm
}

// CompileCandidate compiles the subsuming side of a clause for repeated
// probes against prepared examples.
func CompileCandidate(c logic.Clause) *CompiledCandidate {
	cc := &CompiledCandidate{c: c, varIndex: make(map[string]int)}
	termOf := func(t logic.Term) compiledTerm {
		if t.IsConst() {
			return compiledTerm{varID: -1, value: t.Name}
		}
		id, ok := cc.varIndex[t.Name]
		if !ok {
			id = len(cc.varNames)
			cc.varIndex[t.Name] = id
			cc.varNames = append(cc.varNames, t.Name)
		}
		return compiledTerm{varID: id}
	}

	// Head variables first so they are bound before the search starts.
	for _, a := range c.Head.Args {
		termOf(a)
	}

	for i, l := range c.Body {
		switch {
		case l.IsRelation() || l.IsRepair():
			cl := candLit{cIndex: i, key: predID(l)}
			for _, a := range l.Args {
				cl.args = append(cl.args, termOf(a))
			}
			cc.lits = append(cc.lits, cl)
		default:
			ci := compiledConstraint{kind: l.Kind, l: termOf(l.Args[0]), r: termOf(l.Args[1])}
			cc.constraints = append(cc.constraints, ci)
		}
	}
	cc.varConstraints = make([][]int, len(cc.varNames))
	for idx, con := range cc.constraints {
		if con.l.varID >= 0 {
			cc.varConstraints[con.l.varID] = append(cc.varConstraints[con.l.varID], idx)
		}
		if con.r.varID >= 0 && con.r.varID != con.l.varID {
			cc.varConstraints[con.r.varID] = append(cc.varConstraints[con.r.varID], idx)
		}
	}
	cc.headVars = headVarIDs(c, cc.varIndex)
	return cc
}

// ProbeStats reports how much work one probe did, for plan telemetry.
type ProbeStats struct {
	// Nodes is the number of backtracking-search nodes the probe explored
	// (zero for probes rejected before the search: head mismatch or an
	// infeasible literal).
	Nodes int
	// Planned reports whether the literal planner ordered this probe's
	// search (false for probes rejected before the search).
	Planned bool
	// Exhausted reports a failed search that hit its node budget (or was
	// cancelled, which abandons the search the same way). An exhausted
	// probe's "does not subsume" answer is conservative, not definitive.
	Exhausted bool
}

// Probe reports whether the candidate θ-subsumes the prepared clause under
// Definition 4.4, or classically when plain is set (no repair-literal
// closure requirement: the test used between repaired clauses), returning the
// substitution when it does and the probe's work statistics. A cancelled
// search stops at its next poll and reports no subsumption, the same
// conservative answer an exhausted node budget produces.
func (cc *CompiledCandidate) Probe(ctx context.Context, p *Prepared, plain bool) (bool, logic.Substitution, ProbeStats) {
	if cc.c.Head.Pred != p.d.Head.Pred || len(cc.c.Head.Args) != len(p.d.Head.Args) {
		return false, nil, ProbeStats{}
	}
	e := cc.against(ctx, p, plain)
	ok, theta := e.run()
	return ok, theta, ProbeStats{
		Nodes:     e.nodes,
		Planned:   !e.infeasible,
		Exhausted: !ok && e.nodes >= e.maxNodes,
	}
}

// against instantiates the per-probe search state: candidate images of every
// literal in the prepared clause (filtered by predicate key, arity and
// constant positions) and the search order over them.
func (cc *CompiledCandidate) against(ctx context.Context, prep *Prepared, plain bool) *compiled {
	e := &compiled{
		c: cc.c, d: prep.d,
		varIndex:          cc.varIndex,
		varNames:          cc.varNames,
		constraints:       cc.constraints,
		varConstraints:    cc.varConstraints,
		prep:              prep,
		skipRepairClosure: plain,
		maxNodes:          prep.maxNodes,
		ctx:               ctx,
	}
	lits := make([]compiledLit, 0, len(cc.lits))
	for _, l := range cc.lits {
		cl := compiledLit{cIndex: l.cIndex, args: l.args}
		for _, di := range prep.byPred[l.key] {
			dl := prep.d.Body[di]
			if len(dl.Args) != len(l.args) {
				continue
			}
			ok := true
			for k, a := range l.args {
				if a.varID < 0 {
					da := dl.Args[k]
					if da.IsVar() || da.Name != a.value {
						ok = false
						break
					}
				}
			}
			if ok {
				cl.candidates = append(cl.candidates, di)
			}
		}
		if len(cl.candidates) == 0 {
			// A mappable literal with no image: the search cannot succeed, so
			// skip ordering and search-state setup entirely. Failing probes
			// are the common case when scoring selective candidates.
			e.infeasible = true
			return e
		}
		lits = append(lits, cl)
	}
	// Plan the search order: selectivity-greedy over the per-probe candidate
	// images. The plan is a permutation of lits, so it can change only the
	// node count of the search, never its outcome.
	e.lits = applyPlan(lits, planOrder(lits, len(cc.varNames), cc.headVars))
	return e
}
