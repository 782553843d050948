package subsumption

import (
	"context"

	"dlearn/internal/logic"
)

// compiled is the preprocessed form of a subsumption problem c ⊆θ d. The
// variables of c are numbered densely so bindings live in a slice rather
// than a map, candidate images are precomputed per literal (filtered by
// predicate and constant positions), and restriction literals are attached
// to the variables they mention so they are checked as soon as both sides
// are bound.
type compiled struct {
	c, d logic.Clause

	varIndex map[string]int // c variable name -> dense id
	varNames []string

	// mappable literals of c in search order.
	lits []compiledLit

	// constraints of c (restriction literals).
	constraints []compiledConstraint
	// varConstraints[v] lists constraint indices mentioning variable v.
	varConstraints [][]int

	// prep is the preprocessed d-side (shared across many c's).
	prep *Prepared

	skipRepairClosure bool
	// infeasible marks a probe where some literal of c has no candidate
	// image in d; the search is skipped entirely.
	infeasible bool
	maxNodes   int
	nodes      int

	// ctx cancels the search: the node loop polls it periodically and a
	// cancelled search reports "does not subsume", exactly like an exhausted
	// node budget.
	ctx context.Context
}

// ctxPollInterval is how many search nodes are explored between context
// polls; polling every node would dominate small searches.
const ctxPollInterval = 256

// Prepared is the preprocessed subsumed-clause side of θ-subsumption: its
// literals indexed by predicate, its equality closure and similarity pairs,
// and its repair-literal connectivity. Preparing a ground bottom clause once
// and testing many candidate clauses against it is the dominant usage in the
// learner, so this saves recompiling the large side on every test.
//
// A Prepared is immutable after Prepare returns (the equality closure is
// frozen and the repair connectivity fully precomputed), so any number of
// goroutines may probe the same Prepared concurrently.
type Prepared struct {
	d         logic.Clause
	byPred    map[uint32][]int
	eq        eqClosure
	simPairs  map[[2]logic.Term]bool
	connected [][]int
	hasRepair bool
	maxNodes  int
}

// Prepare preprocesses the subsumed side d for repeated subsumption tests.
func (ch *Checker) Prepare(d logic.Clause) *Prepared {
	p := &Prepared{
		d:        d,
		byPred:   make(map[uint32][]int),
		simPairs: make(map[[2]logic.Term]bool),
		maxNodes: ch.Opts.maxNodes(),
	}
	eq := newUnionFind()
	for i, l := range d.Body {
		if l.IsRelation() || l.IsRepair() {
			k := predID(l)
			p.byPred[k] = append(p.byPred[k], i)
		}
		if l.IsRepair() {
			p.hasRepair = true
		}
		switch l.Kind {
		case logic.EqualityLit:
			eq.union(l.Args[0], l.Args[1])
		case logic.SimilarityLit:
			a, b := l.Args[0], l.Args[1]
			p.simPairs[[2]logic.Term{a, b}] = true
			p.simPairs[[2]logic.Term{b, a}] = true
		}
	}
	p.eq = eq.freeze()
	// Only relation literals are consulted by the closure check (mapped
	// repair literals are skipped), so precomputing their connectivity makes
	// the check read-only and the Prepared safely shareable.
	p.connected = d.RepairConnectivity()
	return p
}

// compiledLit is one relation or repair literal of c with its candidate
// images in d.
type compiledLit struct {
	cIndex     int
	args       []compiledTerm
	candidates []int // indices into d.Body
}

// compiledTerm is a term of c: either a variable id or a constant.
type compiledTerm struct {
	varID int    // >= 0 when variable
	value string // constant value when varID < 0
}

// compiledConstraint is a restriction literal of c over compiled terms.
type compiledConstraint struct {
	kind logic.Kind
	l, r compiledTerm
}

// binding is the search state: the image of each c variable (valid only when
// bound is true).
type binding struct {
	terms []logic.Term
	bound []bool
}

func headVarIDs(c logic.Clause, varIndex map[string]int) []int {
	var out []int
	for _, a := range c.Head.Args {
		if a.IsVar() {
			out = append(out, varIndex[a.Name])
		}
	}
	return out
}

// run performs the backtracking search. It returns the substitution when c
// subsumes d.
func (e *compiled) run() (bool, logic.Substitution) {
	if e.infeasible {
		return false, nil
	}
	b := binding{terms: make([]logic.Term, len(e.varNames)), bound: make([]bool, len(e.varNames))}
	// Bind head variables.
	for i, a := range e.c.Head.Args {
		da := e.d.Head.Args[i]
		if a.IsConst() {
			if da.IsVar() || da.Name != a.Name {
				return false, nil
			}
			continue
		}
		id := e.varIndex[a.Name]
		if b.bound[id] && b.terms[id] != da {
			return false, nil
		}
		b.terms[id], b.bound[id] = da, true
	}
	for id := range b.bound {
		if b.bound[id] && !e.constraintsOKFor(b, id) {
			return false, nil
		}
	}
	// The mapped-literal bookkeeping only feeds the repair-closure check of
	// Definition 4.4; skip it (nil map) in plain mode and when d has no
	// repair literals, where the check is vacuous.
	var mapped map[int]int
	if !e.skipRepairClosure && e.prep.hasRepair {
		mapped = make(map[int]int)
	}
	if !e.search(b, 0, mapped) {
		return false, nil
	}
	theta := logic.NewSubstitution()
	for id, name := range e.varNames {
		if b.bound[id] {
			theta[name] = b.terms[id]
		}
	}
	return true, theta
}

func (e *compiled) search(b binding, k int, mapped map[int]int) bool {
	if e.nodes >= e.maxNodes {
		return false
	}
	if e.nodes%ctxPollInterval == 0 && e.ctx.Err() != nil {
		// Cancelled: abandon the search by exhausting the node budget so
		// every ancestor frame unwinds without finding a match.
		e.nodes = e.maxNodes
		return false
	}
	e.nodes++
	if k == len(e.lits) {
		if !e.finalConstraintsOK(b) {
			return false
		}
		if mapped != nil && !e.repairClosureOK(mapped) {
			return false
		}
		return true
	}
	cl := e.lits[k]
	for _, di := range cl.candidates {
		dl := e.d.Body[di]
		trail, ok := e.bindLit(&b, cl, dl)
		if ok {
			prev, hadPrev := 0, false
			if mapped != nil {
				prev, hadPrev = mapped[di]
				mapped[di] = cl.cIndex
			}
			if e.search(b, k+1, mapped) {
				return true
			}
			if mapped != nil {
				if hadPrev {
					mapped[di] = prev
				} else {
					delete(mapped, di)
				}
			}
		}
		for _, v := range trail {
			b.bound[v] = false
		}
		if e.nodes >= e.maxNodes {
			return false
		}
	}
	return false
}

// bindLit binds the variables of cl to the arguments of dl, checking
// constants and the constraints of every newly bound variable. It returns
// the trail of newly bound variable ids; on failure the caller must undo the
// trail.
func (e *compiled) bindLit(b *binding, cl compiledLit, dl logic.Literal) ([]int, bool) {
	var trail []int
	for i, a := range cl.args {
		da := dl.Args[i]
		if a.varID < 0 {
			if da.IsVar() || da.Name != a.value {
				return trail, false
			}
			continue
		}
		if b.bound[a.varID] {
			if b.terms[a.varID] != da {
				return trail, false
			}
			continue
		}
		b.terms[a.varID] = da
		b.bound[a.varID] = true
		trail = append(trail, a.varID)
		if !e.constraintsOKFor(*b, a.varID) {
			return trail, false
		}
	}
	return trail, true
}

// constraintsOKFor checks the constraints mentioning variable v whose two
// sides are both determined.
func (e *compiled) constraintsOKFor(b binding, v int) bool {
	for _, ci := range e.varConstraints[v] {
		con := e.constraints[ci]
		lt, lok := e.image(b, con.l)
		rt, rok := e.image(b, con.r)
		if !lok || !rok {
			continue
		}
		if !e.constraintHolds(con.kind, lt, rt) {
			return false
		}
	}
	return true
}

// finalConstraintsOK re-checks every constraint at the end; constraints with
// an unbound side are considered satisfiable (a free variable can always be
// bound to a value making them true).
func (e *compiled) finalConstraintsOK(b binding) bool {
	for _, con := range e.constraints {
		lt, lok := e.image(b, con.l)
		rt, rok := e.image(b, con.r)
		if !lok || !rok {
			continue
		}
		if !e.constraintHolds(con.kind, lt, rt) {
			return false
		}
	}
	return true
}

func (e *compiled) image(b binding, t compiledTerm) (logic.Term, bool) {
	if t.varID < 0 {
		return logic.Const(t.value), true
	}
	if !b.bound[t.varID] {
		return logic.Term{}, false
	}
	return b.terms[t.varID], true
}

func (e *compiled) constraintHolds(kind logic.Kind, a, b logic.Term) bool {
	switch kind {
	case logic.EqualityLit:
		return a == b || e.prep.eq.same(a, b)
	case logic.SimilarityLit:
		return a == b || e.prep.eq.same(a, b) || e.prep.simPairs[[2]logic.Term{a, b}]
	case logic.InequalityLit:
		return a != b && !e.prep.eq.same(a, b)
	default:
		return true
	}
}

// repairClosureOK enforces the second condition of Definition 4.4: every
// repair literal of d connected to a mapped (non-repair) literal of d must
// itself be mapped.
func (e *compiled) repairClosureOK(mapped map[int]int) bool {
	for di := range mapped {
		dl := e.d.Body[di]
		if dl.IsRepair() {
			continue
		}
		// Connectivity was precomputed for every relation literal in Prepare,
		// so this is a pure read and the Prepared stays shareable.
		for _, ri := range e.prep.connected[di] {
			if _, ok := mapped[ri]; !ok {
				return false
			}
		}
	}
	return true
}
