// Package subsumption implements θ-subsumption between clauses of the
// extended hypothesis language, including the repair-literal condition of
// Definition 4.4 of the paper. θ-subsumption is the generality order used by
// DLearn's generalization step and the workhorse of its coverage tests
// (Theorems 4.6 and 4.9 establish that it is sound, and for MD-only repair
// literals also complete, for logical entailment).
//
// The implementation compiles the subsuming clause into an integer-indexed
// constraint-satisfaction problem (dense variable ids, per-literal candidate
// lists filtered by constants) and runs a bounded backtracking search whose
// literal order is chosen per probe by a statistics-free selectivity planner
// (see planner.go); plans are permutations, so the planner changes node
// counts, never outcomes.
package subsumption

import "dlearn/internal/logic"

// Options bounds the backtracking search. θ-subsumption is NP-complete; the
// learner treats a search that exceeds its budget as "does not subsume",
// which only makes coverage estimates conservative.
type Options struct {
	// MaxNodes caps the number of search nodes explored. Zero means
	// DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes is the default search budget.
const DefaultMaxNodes = 100000

func (o Options) maxNodes() int {
	if o.MaxNodes > 0 {
		return o.MaxNodes
	}
	return DefaultMaxNodes
}

// Checker prepares the subsumed side of θ-subsumption tests under its
// options. The zero value is usable. A Checker is stateless apart from its
// options and is safe for concurrent use.
//
// A test c ⊆θ d (Definition 4.4: there is a substitution θ with cθ ⊆ d,
// where repair literals are matched like ordinary literals, and every repair
// literal of d connected to a mapped literal of d is itself mapped) has one
// entry point: prepare d once with Checker.Prepare, compile c once with
// CompileCandidate, and call CompiledCandidate.Probe for each pair.
type Checker struct {
	Opts Options
}

// New returns a checker with the given options.
func New(opts Options) *Checker { return &Checker{Opts: opts} }

// predicateKey distinguishes relation literals by predicate and repair
// literals by their kind, origin and dependency name, so MD repair literals
// only map to MD repair literals of the same dependency.
type predicateKey struct {
	repair bool
	origin logic.RepairOrigin
	pred   string
}

// predKey returns the predicate key of a literal.
func predKey(l logic.Literal) predicateKey {
	if l.IsRepair() {
		return predicateKey{repair: true, origin: l.Origin, pred: l.Pred}
	}
	return predicateKey{pred: l.Pred}
}

// unionFind is a minimal union-find over terms used to build the equality
// closure of the subsumed clause. Keying by logic.Term (a comparable struct)
// instead of rendered strings keeps the constraint checks of the search
// allocation-free.
type unionFind struct {
	parent map[logic.Term]logic.Term
}

func newUnionFind() *unionFind { return &unionFind{parent: make(map[logic.Term]logic.Term)} }

func (u *unionFind) find(x logic.Term) logic.Term {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *unionFind) union(a, b logic.Term) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// freeze resolves every element to its final root, producing a read-only
// closure. The union-find itself mutates on reads (path compression), so a
// Prepared stores the frozen form to stay safe under concurrent probes.
func (u *unionFind) freeze() eqClosure {
	root := make(map[logic.Term]logic.Term, len(u.parent))
	for x := range u.parent {
		root[x] = u.find(x)
	}
	return eqClosure{root: root}
}

// eqClosure is an immutable equality closure: a term maps to the
// representative of its equivalence class. Terms never mentioned in an
// equality literal are only equal to themselves.
type eqClosure struct {
	root map[logic.Term]logic.Term
}

func (e eqClosure) same(a, b logic.Term) bool {
	if a == b {
		return true
	}
	ra, ok := e.root[a]
	if !ok {
		return false
	}
	rb, ok := e.root[b]
	if !ok {
		return false
	}
	return ra == rb
}
