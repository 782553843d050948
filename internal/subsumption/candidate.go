package subsumption

import (
	"context"
	"math"
	"slices"

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
// A probe rejected because some literal has no image allocates nothing; any
// other probe allocates its search state once, however many nodes it
// explores.
type CompiledCandidate struct {
	c logic.Clause

	varIndex map[string]int // c variable name -> dense id
	varNames []string

	// lits are the mappable (relation and repair) literals of c, without
	// per-example candidate images.
	lits []candLit

	// constraints are the restriction literals of c; varConstraints[v] lists
	// the constraint indices mentioning variable v, and groundConstraints
	// the indices of those mentioning none.
	constraints       []compiledConstraint
	varConstraints    [][]int
	groundConstraints []int

	headVars []int

	// packable reports that the head and every mappable literal have at
	// most maxPackedArity arguments, so the binding's slots can be packed
	// and the probe can use a term index.
	packable bool
}

// candLit is one mappable literal of the candidate: its interned
// predicate-key ID (used to look up images in a Prepared) and compiled
// arguments.
type candLit struct {
	key  uint32
	args []compiledTerm
}

// matches reports whether a d literal with arguments dArgs can be an image
// of l: the same arity, and l's constants at their positions.
func (l *candLit) matches(dArgs []logic.Term) bool {
	if len(dArgs) != len(l.args) {
		return false
	}
	for k := range l.args {
		if a := &l.args[k]; a.varID < 0 && (dArgs[k].IsVar() || dArgs[k].Name != a.value) {
			return false
		}
	}
	return true
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

	for _, l := range c.Body {
		switch {
		case l.IsRelation() || l.IsRepair():
			cl := candLit{key: predID(l)}
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
		if con.l.varID < 0 && con.r.varID < 0 {
			cc.groundConstraints = append(cc.groundConstraints, idx)
		}
		if con.l.varID >= 0 {
			cc.varConstraints[con.l.varID] = append(cc.varConstraints[con.l.varID], idx)
		}
		if con.r.varID >= 0 && con.r.varID != con.l.varID {
			cc.varConstraints[con.r.varID] = append(cc.varConstraints[con.r.varID], idx)
		}
	}
	cc.headVars = headVarIDs(c, cc.varIndex)
	cc.packable = len(c.Head.Args) <= maxPackedArity &&
		!slices.ContainsFunc(cc.lits, func(l candLit) bool { return len(l.args) > maxPackedArity })
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
// closure requirement: the test used between repaired clauses), and the
// probe's work statistics. A cancelled search stops at its next poll and
// reports no subsumption, the same conservative answer an exhausted node
// budget produces.
func (cc *CompiledCandidate) Probe(ctx context.Context, p *Prepared, plain bool) (bool, ProbeStats) {
	return cc.probe(ctx, p, plain, nil)
}

// probe is Probe; when the candidate subsumes the prepared clause and theta
// is not nil, it also writes the substitution into theta.
func (cc *CompiledCandidate) probe(ctx context.Context, p *Prepared, plain bool, theta logic.Substitution) (bool, ProbeStats) {
	if cc.c.Head.Pred != p.d.Head.Pred || len(cc.c.Head.Args) != len(p.d.Head.Args) {
		return false, ProbeStats{}
	}
	images, feasible := cc.imageBound(p)
	if !feasible {
		// A mappable literal with no image: the search cannot succeed, so
		// no search state is built. Failing probes are the common case when
		// scoring selective candidates.
		return false, ProbeStats{}
	}
	e := cc.against(ctx, p, plain, images)
	ok := e.run()
	if e.idx == nil && e.scanned > 0 {
		p.scanned.Add(int64(e.scanned))
	}
	if ok && theta != nil {
		for id, name := range cc.varNames {
			if e.b.bound[id] {
				theta[name] = e.b.terms[id]
			}
		}
	}
	return ok, ProbeStats{
		Nodes:     e.nodes,
		Planned:   true,
		Exhausted: !ok && e.nodes >= e.maxNodes,
	}
}

// imageBound reports whether every mappable literal of the candidate has at
// least one image in the prepared clause and, if so, an upper bound on their
// total number of images. It only reads, so an infeasible probe allocates
// nothing.
func (cc *CompiledCandidate) imageBound(prep *Prepared) (int, bool) {
	n := 0
	for i := range cc.lits {
		l := &cc.lits[i]
		bucket := prep.byPred[l.key]
		if !slices.ContainsFunc(bucket, func(di int) bool { return l.matches(prep.d.Body[di].Args) }) {
			return 0, false
		}
		n += len(bucket)
	}
	return n, true
}

// against instantiates the search state of a feasible probe: the candidate
// images of every literal in the prepared clause, collected into one backing
// slice of capacity images, the search order over them with each literal's
// bound position, the binding, the trail and, when the closure is checked,
// the search path.
func (cc *CompiledCandidate) against(ctx context.Context, prep *Prepared, plain bool, images int) compiled {
	all := make([]int, 0, images)
	lits := make([]compiledLit, len(cc.lits))
	for i := range cc.lits {
		l := &cc.lits[i]
		start := len(all)
		for _, di := range prep.byPred[l.key] {
			if l.matches(prep.d.Body[di].Args) {
				all = append(all, di)
			}
		}
		lits[i] = compiledLit{pred: l.key, args: l.args, candidates: all[start:len(all):len(all)], key: -1}
	}
	nv := len(cc.varNames)
	e := compiled{
		cc:   cc,
		prep: prep,
		// Plan the search order: selectivity-greedy over the per-probe
		// candidate images. The plan is a permutation of lits, so it can
		// change only the node count of the search, never its outcome.
		lits:     applyPlan(lits, planOrder(lits, nv, cc.headVars)),
		b:        binding{terms: make([]logic.Term, nv), bound: make([]bool, nv), slot: make([]uint32, nv)},
		trail:    make([]int, 0, nv),
		maxNodes: prep.maxNodes,
		buildAt:  math.MaxInt,
		ctx:      ctx,
	}
	if !plain && prep.hasRepair {
		e.path = make([]int, len(lits))
	}
	if cc.packable && e.markKeys() {
		if e.idx = prep.idx.Load(); e.idx == nil {
			e.buildAt = indexBuildFactor*len(prep.d.Body) - int(prep.scanned.Load())
		}
	}
	return e
}

// markKeys sets the bound position of every literal in search order: an
// argument whose variable is a head variable or a variable of an earlier
// literal, since a successful bindLit binds every variable of its literal.
// It reports whether any literal has one. The binding's bound flags, all
// false before the search, serve as scratch.
func (e *compiled) markKeys() bool {
	covered := e.b.bound
	for _, v := range e.cc.headVars {
		covered[v] = true
	}
	found := false
	for k := range e.lits {
		cl := &e.lits[k]
		for i, a := range cl.args {
			if a.varID >= 0 && covered[a.varID] {
				cl.key, found = i, true
				break
			}
		}
		for _, a := range cl.args {
			if a.varID >= 0 {
				covered[a.varID] = true
			}
		}
	}
	clear(covered)
	return found
}
