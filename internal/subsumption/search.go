package subsumption

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"dlearn/internal/logic"
)

// compiled is the per-probe search state of a subsumption problem c ⊆θ d:
// the mappable literals of c in search order with their candidate images in
// d (filtered by predicate and constant positions), the binding of c's dense
// variable ids, the trail of variables the search has bound, and — when the
// repair-literal closure of Definition 4.4 is checked — the d literal chosen
// at every depth. Probe allocates it once; the search allocates nothing
// (building the Prepared's term index, once per Prepared, is the one
// exception).
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

	// idx is the Prepared's term index once this probe walks it, nil while
	// the probe scans candidate lists. scanned counts the images the probe
	// scanned; when it reaches buildAt the probe fetches the index, building
	// it if no probe has yet. buildAt is math.MaxInt when no literal of the
	// probe has a bound position to look up, or when d cannot be indexed.
	idx     *termIndex
	scanned int
	buildAt int

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
// goroutines may probe the same Prepared concurrently. The one exception is
// its term index, which the probes build on demand: at most once, published
// through an atomic pointer, and never changing a probe's answer or search
// tree.
type Prepared struct {
	d         logic.Clause
	byPred    map[uint32][]int
	eq        eqClosure
	simPairs  map[[2]logic.Term]bool
	connected [][]int
	hasRepair bool
	maxNodes  int

	// scanned is the number of images that probes which ended before the
	// term index existed scanned against this Prepared. idxOnce builds the
	// index and idx publishes it.
	scanned atomic.Int64
	idxOnce sync.Once
	idx     atomic.Pointer[termIndex]
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

// indexBuildFactor sets when a Prepared builds its term index: once the
// images scanned against it reach indexBuildFactor times its body length.
// Building is one pass over d's arguments, so its cost is proportional to
// the body length: about a dozen scanned images per body literal (0.23 µs
// a literal against 17 ns a scanned image, on BenchmarkProbeBoundArgument's
// clause, 2 vCPUs). Tying the point to the body length therefore keeps the
// build within a fixed multiple of the scan work already done, on any d: a
// Prepared probed a few cheap times, as a classification probes its
// examples, never builds, and a single long probe builds early and pays for
// its own index. The multiple is low because a Prepared that has scanned
// twice its length is in practice probed on: the blocking-literal scan of
// generalization probes an example once per body literal of the clause it
// generalizes. It is a property of d, not a setting.
const indexBuildFactor = 2

// Slots pack a literal and an argument position into a uint32: the head is
// literal 0 and body literal i is literal i+1, in the bits above the
// position. A literal of more than maxPackedArity arguments or a clause of
// more than maxPackedBody body literals cannot be packed; probes that would
// need it scan instead.
const (
	slotPosBits    = 8
	slotPosMask    = 1<<slotPosBits - 1
	maxPackedArity = slotPosMask
	maxPackedBody  = 1<<(32-slotPosBits) - 2
)

func packSlot(lit, pos int) uint32 { return uint32(lit)<<slotPosBits | uint32(pos) }

// termIndex is the term index of a Prepared: its argument terms as dense
// IDs, and for each term the relation and repair literals that hold it.
// With it, the search iterates only the images of a literal that agree with
// a variable the search has already bound (see searchIndexed). It is built
// at most once per Prepared, on demand (see indexBuildFactor), and is
// read-only afterwards. Snapshots do not store it.
type termIndex struct {
	// argID[base[l]+pos] is the term ID of argument pos of packed literal l
	// (0 the head, i+1 body literal i). Restriction literals and literals
	// of more than maxPackedArity arguments have no IDs: no variable is ever
	// bound from them.
	base  []int32
	argID []int32
	// lits holds the predicate key and arity of each body literal.
	lits []litShape
	// occ[off[id]:off[id+1]] lists the packed slots holding term id in the
	// relation and repair literals of the body, in ascending body order.
	off []int32
	occ []uint32
}

// litShape is what an image must share with a literal of c besides its
// arguments: the predicate key and the arity.
type litShape struct {
	pred  uint32
	arity int32
}

// id returns the term ID at a packed slot.
func (x *termIndex) id(slot uint32) int32 {
	return x.argID[x.base[slot>>slotPosBits]+int32(slot&slotPosMask)]
}

// index returns the term index of p, building it on first use. It returns
// nil when d is too large to pack.
func (p *Prepared) index() *termIndex {
	p.idxOnce.Do(func() {
		if x := buildTermIndex(p.d, p.byPred); x != nil {
			p.idx.Store(x)
		}
	})
	return p.idx.Load()
}

// buildTermIndex interns the argument terms of d and lists where each
// occurs. The intern map lives only while it builds.
func buildTermIndex(d logic.Clause, byPred map[uint32][]int) *termIndex {
	if len(d.Body) > maxPackedBody {
		return nil
	}
	// args returns the arguments of packed literal l that get term IDs.
	args := func(l int) []logic.Term {
		a := d.Head.Args
		if l > 0 {
			if bl := d.Body[l-1]; bl.IsRelation() || bl.IsRepair() {
				a = bl.Args
			} else {
				a = nil
			}
		}
		if len(a) > maxPackedArity {
			return nil
		}
		return a
	}
	n := len(d.Body) + 1
	x := &termIndex{base: make([]int32, n), lits: make([]litShape, len(d.Body))}
	total := 0
	for l := range n {
		if total > math.MaxInt32-maxPackedArity {
			return nil
		}
		x.base[l] = int32(total)
		total += len(args(l))
	}
	ids := make(map[logic.Term]int32, total)
	x.argID = make([]int32, total)
	count := make([]int32, 0, total)
	for l := range n {
		for pos, t := range args(l) {
			id, ok := ids[t]
			if !ok {
				id = int32(len(count))
				ids[t] = id
				count = append(count, 0)
			}
			x.argID[x.base[l]+int32(pos)] = id
			if l > 0 {
				count[id]++
			}
		}
	}
	// Prefix sums turn the counts into CSR offsets; count then serves as
	// each term's fill cursor.
	x.off = make([]int32, len(count)+1)
	for id, c := range count {
		x.off[id+1] = x.off[id] + c
		count[id] = x.off[id]
	}
	x.occ = make([]uint32, x.off[len(count)])
	for l := 1; l < n; l++ {
		for pos := range args(l) {
			id := x.argID[x.base[l]+int32(pos)]
			x.occ[count[id]] = packSlot(l, pos)
			count[id]++
		}
	}
	for pred, lits := range byPred {
		for _, i := range lits {
			x.lits[i] = litShape{pred: pred, arity: int32(len(d.Body[i].Args))}
		}
	}
	return x
}

// compiledLit is one relation or repair literal of c with its candidate
// images in d.
type compiledLit struct {
	pred       uint32 // interned predicate key
	args       []compiledTerm
	candidates []int // indices into d.Body
	// key is an argument position whose variable is bound whenever the
	// search reaches this literal (a head variable, or a variable of a
	// literal searched earlier), or -1 when there is none. With the term
	// index, the search visits only the images holding that variable's
	// value at this position.
	key int
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
// bound is true) and the d argument slot it was read from, packed by
// packSlot, so the term index finds the image's term ID without hashing it.
type binding struct {
	terms []logic.Term
	bound []bool
	slot  []uint32
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

// run binds the head and performs the backtracking search. It reports
// whether c subsumes d; on success the binding holds the substitution.
func (e *compiled) run() bool {
	b := &e.b
	dHead := e.prep.d.Head.Args
	for i, a := range e.cc.c.Head.Args {
		da := dHead[i]
		if a.IsConst() {
			if da.IsVar() || da.Name != a.Name {
				return false
			}
			continue
		}
		id := e.cc.varIndex[a.Name]
		if b.bound[id] && b.terms[id] != da {
			return false
		}
		b.terms[id], b.bound[id], b.slot[id] = da, true, packSlot(0, i)
	}
	for id := range b.bound {
		if b.bound[id] && !e.constraintsOKFor(b, id) {
			return false
		}
	}
	return e.search(0)
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
	if cl.key >= 0 {
		if e.idx == nil && e.scanned >= e.buildAt {
			if e.idx = e.prep.index(); e.idx == nil {
				e.buildAt = math.MaxInt
			}
		}
		if e.idx != nil {
			return e.searchIndexed(k, cl)
		}
	}
	for _, di := range cl.candidates {
		e.scanned++
		if e.try(k, cl, di) {
			return true
		}
		if e.nodes >= e.maxNodes {
			return false
		}
	}
	return false
}

// searchIndexed is the loop of search over the images of cl that the term
// index lists: the relation and repair literals of d holding, at cl.key,
// the term bound to the variable there, with cl's predicate and arity. They
// are a subset of cl.candidates in the same ascending order, and every
// candidate left out fails bindLit on the bound position without counting a
// node or changing the budget. So the search visits the same nodes in the
// same order as the scan, with the same answer, node count and budget
// cut-off; it only skips the images that cannot bind.
func (e *compiled) searchIndexed(k int, cl *compiledLit) bool {
	x := e.idx
	id := x.id(e.b.slot[cl.args[cl.key].varID])
	pos, arity := uint32(cl.key), int32(len(cl.args))
	for _, s := range x.occ[x.off[id]:x.off[id+1]] {
		if s&slotPosMask != pos {
			continue
		}
		di := int(s>>slotPosBits) - 1
		if l := x.lits[di]; l.pred != cl.pred || l.arity != arity {
			continue
		}
		if e.try(k, cl, di) {
			return true
		}
		if e.nodes >= e.maxNodes {
			return false
		}
	}
	return false
}

// try maps the literal cl at depth k onto the d literal di and searches the
// literals below it, undoing the bindings unless the search succeeds.
func (e *compiled) try(k int, cl *compiledLit, di int) bool {
	height := len(e.trail)
	if e.bindLit(cl, di) {
		if e.path != nil {
			e.path[k] = di
		}
		if e.search(k + 1) {
			return true
		}
	}
	e.undo(height)
	return false
}

// bindLit binds the variables of cl to the arguments of the d literal di,
// checking constants and the constraints of every newly bound variable. It
// pushes every newly bound variable on the trail; on failure the caller
// must undo the trail to its height before the call.
func (e *compiled) bindLit(cl *compiledLit, di int) bool {
	b := &e.b
	dArgs := e.prep.d.Body[di].Args
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
		b.slot[a.varID] = packSlot(di+1, i)
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
