package subsumption

import (
	"context"
	"slices"

	"dlearn/internal/logic"
)

// compiled is the per-probe search state of a subsumption problem c ⊆θ d:
// the mappable literals of c in search order with their candidate images in
// d (filtered by predicate and constant positions), the binding of c's dense
// variable ids, the trail of variables the search has bound, and — when the
// repair-literal closure of Definition 4.4 is checked — the d literal chosen
// at every depth. Probe allocates it once; the search allocates nothing.
type compiled struct {
	// cc is the candidate side: variable numbering and constraints.
	cc *CompiledCandidate
	// prep is the preprocessed d-side (shared across many c's).
	prep *Prepared

	// lits are the mappable literals of c in search order.
	lits []compiledLit
	b    binding
	// trail is the stack of variable ids bound by the search, undone by
	// height on backtracking. A variable is on it at most once, so its
	// capacity is the number of variables.
	trail []int
	// path[k] is the d literal that the literal at depth k maps to. It is
	// nil when the closure is not checked (plain mode, or d has no repair
	// literals, where the check is vacuous).
	path []int

	maxNodes int
	nodes    int

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

// run binds the head and performs the backtracking search. It returns the
// substitution when c subsumes d.
func (e *compiled) run() (bool, logic.Substitution) {
	b := &e.b
	dHead := e.prep.d.Head.Args
	for i, a := range e.cc.c.Head.Args {
		da := dHead[i]
		if a.IsConst() {
			if da.IsVar() || da.Name != a.Name {
				return false, nil
			}
			continue
		}
		id := e.cc.varIndex[a.Name]
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
	if !e.search(0) {
		return false, nil
	}
	theta := logic.NewSubstitution()
	for id, name := range e.cc.varNames {
		if b.bound[id] {
			theta[name] = b.terms[id]
		}
	}
	return true, theta
}

func (e *compiled) search(k int) bool {
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
		if !e.groundConstraintsOK() {
			return false
		}
		if e.path != nil && !e.repairClosureOK() {
			return false
		}
		return true
	}
	cl := &e.lits[k]
	body := e.prep.d.Body
	for _, di := range cl.candidates {
		height := len(e.trail)
		if e.bindLit(cl, body[di].Args) {
			if e.path != nil {
				e.path[k] = di
			}
			if e.search(k + 1) {
				return true
			}
		}
		e.undo(height)
		if e.nodes >= e.maxNodes {
			return false
		}
	}
	return false
}

// bindLit binds the variables of cl to the arguments dArgs of a d literal,
// checking constants and the constraints of every newly bound variable. It
// pushes every newly bound variable on the trail; on failure the caller
// must undo the trail to its height before the call.
func (e *compiled) bindLit(cl *compiledLit, dArgs []logic.Term) bool {
	b := &e.b
	for i := range cl.args {
		a := &cl.args[i]
		da := dArgs[i]
		if a.varID < 0 {
			if da.IsVar() || da.Name != a.value {
				return false
			}
			continue
		}
		if b.bound[a.varID] {
			if b.terms[a.varID] != da {
				return false
			}
			continue
		}
		b.terms[a.varID] = da
		b.bound[a.varID] = true
		e.trail = append(e.trail, a.varID)
		if !e.constraintsOKFor(b, a.varID) {
			return false
		}
	}
	return true
}

// undo unbinds the variables pushed on the trail above height.
func (e *compiled) undo(height int) {
	for _, v := range e.trail[height:] {
		e.b.bound[v] = false
	}
	e.trail = e.trail[:height]
}

// constraintsOKFor checks the constraints mentioning variable v whose two
// sides are both determined.
func (e *compiled) constraintsOKFor(b *binding, v int) bool {
	for _, ci := range e.cc.varConstraints[v] {
		con := &e.cc.constraints[ci]
		lt, lok := image(b, &con.l)
		rt, rok := image(b, &con.r)
		if !lok || !rok {
			continue
		}
		if !e.constraintHolds(con.kind, lt, rt) {
			return false
		}
	}
	return true
}

// groundConstraintsOK checks, at a leaf, the constraints that mention no
// variable. Every other constraint whose sides are both bound was checked
// when its last variable was bound (constraintsOKFor, from bindLit or the
// head binding in run), and bindings never change below that node; one
// with an unbound side is satisfiable (a free variable can always be bound
// to a value making it true).
func (e *compiled) groundConstraintsOK() bool {
	for _, ci := range e.cc.groundConstraints {
		con := &e.cc.constraints[ci]
		if !e.constraintHolds(con.kind, logic.Const(con.l.value), logic.Const(con.r.value)) {
			return false
		}
	}
	return true
}

func image(b *binding, t *compiledTerm) (logic.Term, bool) {
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
// itself be mapped. A d literal is mapped iff it is on the search path, so
// the check reads the complete path and needs no bookkeeping per node.
func (e *compiled) repairClosureOK() bool {
	body := e.prep.d.Body
	for _, di := range e.path {
		if body[di].IsRepair() {
			continue
		}
		// Connectivity was precomputed for every relation literal in Prepare,
		// so this is a pure read and the Prepared stays shareable.
		for _, ri := range e.prep.connected[di] {
			if !slices.Contains(e.path, ri) {
				return false
			}
		}
	}
	return true
}
