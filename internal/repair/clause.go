// Package repair implements the repair mechanisms of the paper:
//
//   - clause-level repairs — converting a clause with repair literals into
//     its set of repaired clauses by iteratively applying repair groups
//     (Section 3.2), which is how learning reasons over the repairs without
//     materializing them; and
//   - the instance-level rewrites the baselines clean the data with:
//     repairing CFD violations by minimal value modification (Section 2.3)
//     and resolving MD matches to their best match (Castor-Clean).
//
// Enumerating the stable instances of MDs (Definition 2.2) is left to a
// test-only oracle in stable_test.go; no production path materializes
// repairs.
//
// Repair literals are grouped into repair operations (logic.Literal.Group):
// the two literals V(x,vx), V(t,vt) of one MD match form a single group and
// are applied together (enforcing the MD sets both values to one fresh
// value), while the alternative fixes of one CFD violation (modify either
// left-hand-side occurrence, or unify the right-hand side in either
// direction) are separate groups, at most one of which fires per violation
// in any application order.
package repair

import (
	"context"
	"encoding/binary"
	"slices"
	"sort"
	"strings"

	"dlearn/internal/logic"
)

// Options controls repaired-clause enumeration.
type Options struct {
	// MaxClauses caps the number of distinct repaired clauses generated for
	// one input clause. Zero means DefaultMaxClauses.
	MaxClauses int
	// MaxStates caps the number of intermediate states explored. Zero means
	// DefaultMaxStates.
	MaxStates int
	// Origin restricts which repair literals are applied: OriginNone (the
	// zero value) applies all of them; OriginMD or OriginCFD applies only
	// the groups of that origin and leaves the others in place. Section 4.3
	// uses the CFD-only expansion during positive coverage testing.
	Origin logic.RepairOrigin
}

// DefaultMaxClauses is the default cap on repaired clauses per clause.
const DefaultMaxClauses = 64

// DefaultMaxStates is the default cap on explored intermediate states.
const DefaultMaxStates = 4096

func (o Options) maxClauses() int {
	if o.MaxClauses > 0 {
		return o.MaxClauses
	}
	return DefaultMaxClauses
}

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return DefaultMaxStates
}

// RepairedClausesContext converts a clause with repair literals into its set
// of repaired clauses (Section 3.2). Each element is free of repair
// literals. Different application orders of the repair groups can yield
// different repaired clauses; all distinct outcomes are returned, ordered
// by their rendered literals, subject to the Options caps. A clause without
// repair literals repairs to itself (after the standard clean-up).
//
// The second result reports a truncated expansion: MaxClauses or MaxStates
// stopped it with states left to explore, or ctx was cancelled, and the
// list may then miss repaired clauses. Callers that must tell cancellation
// from a cap check ctx.Err() afterwards.
func RepairedClausesContext(ctx context.Context, c logic.Clause, opts Options) ([]logic.Clause, bool) {
	e := newExpansion(ctx, c, opts)
	body := make([]uint32, len(c.Body))
	for i, l := range c.Body {
		body[i] = e.intern(l)
	}
	e.explore(state{head: e.intern(c.Head), body: body, sorted: slices.Sorted(slices.Values(body))})
	return e.sortedResults(), e.cut
}

// expansion is one run of RepairedClausesContext. Every literal it meets is
// interned once into a dense ID, and a clause state is its head ID plus its
// body IDs: applying a group re-interns only the literals that mention a
// replaced term, and visited states are recognized by head ID and sorted
// body IDs, so no state is rendered. Literal IDs separate every field
// (Literal.AppendKey), unlike the rendered strings: Var("g") is not
// Const("g"), and an induced equality is not a plain one.
type expansion struct {
	ctx                   context.Context
	origin                logic.RepairOrigin
	maxClauses, maxStates int

	ids   map[string]uint32 // literal key -> ID
	lits  []internedLit     // by ID
	terms map[logic.Term]uint32
	term  []logic.Term // by term ID
	// termArena backs the literals' term ID slices.
	termArena []uint32
	// groupRank ranks the names of the repair groups the expansion applies
	// (those of opts.Origin); substitution keeps a literal's group, so the
	// input clause names them all.
	groupRank map[string]int

	visited map[string]struct{}
	states  int
	cut     bool

	results   []logic.Clause
	resultKey [][]uint32        // per result: head ID, then sorted body IDs
	resultAt  map[string]int    // encoded resultKey -> index in results
	resultIDs map[string]uint32 // literal key, Induced cleared -> ID
	resultLit []logic.Literal   // by result literal ID

	buf     []byte
	keyIDs  []uint32
	gone    []uint32
	added   []uint32
	counts  []int
	eq, sim map[[2]uint32]bool
	// Scratch for substitute.
	args []logic.Term
	cond []logic.Condition
}

// internedLit is one interned literal: the literal itself, which is never
// modified, its term IDs (AllTerms order) and the rank of the repair group
// it belongs to, or -1 when the expansion does not apply it.
type internedLit struct {
	lit   logic.Literal
	terms []uint32
	group int
}

// state is one clause of the expansion as interned literal IDs: the body
// in clause order, and the same IDs sorted, which identify the state
// whatever its body order.
type state struct {
	head   uint32
	body   []uint32
	sorted []uint32
}

func newExpansion(ctx context.Context, c logic.Clause, opts Options) *expansion {
	e := &expansion{
		ctx:        ctx,
		origin:     opts.Origin,
		maxClauses: opts.maxClauses(),
		maxStates:  opts.maxStates(),
		ids:        make(map[string]uint32, 2*len(c.Body)),
		lits:       make([]internedLit, 0, 2*len(c.Body)),
		terms:      make(map[logic.Term]uint32, 2*len(c.Body)),
		groupRank:  make(map[string]int),
		visited:    make(map[string]struct{}),
		resultAt:   make(map[string]int),
		resultIDs:  make(map[string]uint32),
		eq:         make(map[[2]uint32]bool),
		sim:        make(map[[2]uint32]bool),
	}
	var names []string
	for _, l := range c.Body {
		if name, ok := groupOf(l, opts.Origin); ok {
			if _, seen := e.groupRank[name]; !seen {
				e.groupRank[name] = 0
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	for i, name := range names {
		e.groupRank[name] = i
	}
	return e
}

// groupOf returns the name of the repair group l belongs to, if l is a
// repair literal of the given origin (OriginNone means all).
func groupOf(l logic.Literal, origin logic.RepairOrigin) (string, bool) {
	if !l.IsRepair() || (origin != logic.OriginNone && l.Origin != origin) {
		return "", false
	}
	if l.Group == "" {
		return l.Pred, true
	}
	return l.Group, true
}

// intern returns the ID of a literal, interning it on first sight. A
// literal interned here must not be modified afterwards.
func (e *expansion) intern(l logic.Literal) uint32 {
	e.buf = l.AppendKey(e.buf[:0])
	if id, ok := e.ids[string(e.buf)]; ok {
		return id
	}
	id := uint32(len(e.lits))
	e.ids[string(e.buf)] = id
	in := internedLit{lit: l, group: -1}
	start := len(e.termArena)
	for _, t := range l.AllTerms() {
		e.termArena = append(e.termArena, e.termID(t))
	}
	in.terms = e.termArena[start:len(e.termArena):len(e.termArena)]
	if name, ok := groupOf(l, e.origin); ok {
		in.group = e.groupRank[name]
	}
	e.lits = append(e.lits, in)
	return id
}

func (e *expansion) termID(t logic.Term) uint32 {
	id, ok := e.terms[t]
	if !ok {
		id = uint32(len(e.term))
		e.terms[t] = id
		e.term = append(e.term, t)
	}
	return id
}

// explore expands one state depth first: it records the repaired clause of
// a state no group can change, and otherwise branches on which applicable
// group fires first.
func (e *expansion) explore(s state) {
	if len(e.results) >= e.maxClauses || e.states >= e.maxStates {
		e.cut = true
		return
	}
	if e.states%64 == 0 && e.ctx.Err() != nil {
		e.states = e.maxStates
		e.cut = true
		return
	}
	e.states++
	if !e.firstVisit(s) {
		return
	}
	// The state's groups in name order: members holds each group's body
	// indices in body order, group g at members[starts[g]:starts[g+1]].
	e.counts = slices.Grow(e.counts[:0], len(e.groupRank))[:len(e.groupRank)]
	clear(e.counts)
	n := 0
	for _, id := range s.body {
		if g := e.lits[id].group; g >= 0 {
			e.counts[g]++
			n++
		}
	}
	if n == 0 {
		e.addResult(s)
		return
	}
	var starts []int
	at := 0
	for g, k := range e.counts {
		if k > 0 {
			starts = append(starts, at)
		}
		e.counts[g] = at
		at += k
	}
	starts = append(starts, n)
	members := make([]int, n)
	for i, id := range s.body {
		if g := e.lits[id].group; g >= 0 {
			members[e.counts[g]] = i
			e.counts[g]++
		}
	}
	e.loadFacts(s)
	var applicable []int
	for g := 0; g+1 < len(starts); g++ {
		if e.conditionHolds(s.body[members[starts[g]]]) {
			applicable = append(applicable, g)
		}
	}
	if len(applicable) == 0 {
		// No group can fire: drop them all and finish.
		slices.Sort(members)
		e.addResult(e.without(s, members))
		return
	}
	for _, g := range applicable {
		e.explore(e.apply(s, members[starts[g]:starts[g+1]]))
	}
}

// firstVisit records the state and reports whether it is new. States are
// keyed by head ID and sorted body IDs, which ignores body order.
func (e *expansion) firstVisit(s state) bool {
	e.buf = binary.LittleEndian.AppendUint32(e.buf[:0], s.head)
	for _, id := range s.sorted {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, id)
	}
	if _, ok := e.visited[string(e.buf)]; ok {
		return false
	}
	e.visited[string(e.buf)] = struct{}{}
	return true
}

// loadFacts indexes the equality and similarity literals of a state, both
// directions, so repair-group conditions can be evaluated. Induced equality
// literals support equality of the original terms but are never rewritten
// by substitutions, which is what prevents two alternative fixes of the
// same CFD violation from both firing (see the package comment).
func (e *expansion) loadFacts(s state) {
	clear(e.eq)
	clear(e.sim)
	for _, id := range s.body {
		in := &e.lits[id]
		var m map[[2]uint32]bool
		switch in.lit.Kind {
		case logic.EqualityLit:
			m = e.eq
		case logic.SimilarityLit:
			m = e.sim
		default:
			continue
		}
		a, b := in.terms[0], in.terms[1]
		m[[2]uint32{a, b}] = true
		m[[2]uint32{b, a}] = true
	}
}

// conditionHolds evaluates the condition of a repair group against the
// loaded facts. All literals of a group share the same condition; the
// given (first) member's is used.
func (e *expansion) conditionHolds(id uint32) bool {
	in := &e.lits[id]
	for k, c := range in.lit.Cond {
		l, r := in.terms[len(in.lit.Args)+2*k], in.terms[len(in.lit.Args)+2*k+1]
		var ok bool
		switch c.Op {
		case logic.CondEq:
			ok = l == r || e.eq[[2]uint32{l, r}]
		case logic.CondSim:
			ok = l == r || e.sim[[2]uint32{l, r}]
		case logic.CondNeq:
			// Distinct terms with no equality literal between them
			// (Section 4.1).
			ok = l != r && !e.eq[[2]uint32{l, r}]
		}
		if !ok {
			return false
		}
	}
	return true
}

// without returns the state minus the body literals at the given ascending
// indices, for addResult: its sorted IDs are left unset.
func (e *expansion) without(s state, drop []int) state {
	out := state{head: s.head, body: make([]uint32, 0, len(s.body)-len(drop))}
	for i, id := range s.body {
		if len(drop) > 0 && drop[0] == i {
			drop = drop[1:]
			continue
		}
		out.body = append(out.body, id)
	}
	return out
}

// apply applies one repair group, given by its members' ascending body
// indices: every member V(x, vx) substitutes x := vx in the head, in
// relation literals, in non-induced restriction literals, and in the
// arguments and conditions of the remaining repair literals. Similarity
// literals mentioning a replaced term are removed (the fresh value's
// similarity to other values is unknown). Induced equality literals are
// left untouched; they are cleaned up at the end if they dangle. The
// group's own literals are removed.
func (e *expansion) apply(s state, group []int) state {
	// replaced maps term IDs pairwise, target to replacement; a later
	// member replacing the same target wins.
	replaced := make([]uint32, 0, 2*len(group))
	for _, i := range group {
		in := &e.lits[s.body[i]]
		replaced = append(replaced, in.terms[0], in.terms[1])
	}
	out := state{head: e.substitute(s.head, replaced), body: make([]uint32, 0, len(s.body))}
	// gone and added are the body IDs the group removes and introduces;
	// they turn the parent's sorted IDs into the child's.
	e.gone, e.added = e.gone[:0], e.added[:0]
	for i, id := range s.body {
		if len(group) > 0 && group[0] == i {
			group = group[1:]
			e.gone = append(e.gone, id)
			continue
		}
		in := &e.lits[id]
		switch {
		case in.lit.Kind == logic.SimilarityLit:
			_, ok0 := replacement(replaced, in.terms[0])
			_, ok1 := replacement(replaced, in.terms[1])
			if ok0 || ok1 {
				e.gone = append(e.gone, id)
				continue
			}
		case in.lit.Kind == logic.EqualityLit && in.lit.Induced:
		default:
			if sub := e.substitute(id, replaced); sub != id {
				e.gone = append(e.gone, id)
				e.added = append(e.added, sub)
				id = sub
			}
		}
		out.body = append(out.body, id)
	}
	out.sorted = mergeSorted(s.sorted, e.gone, e.added)
	return out
}

// mergeSorted returns the sorted multiset from minus gone plus added, where
// from is sorted and gone is a sub-multiset of it; gone and added are
// sorted in place.
func mergeSorted(from, gone, added []uint32) []uint32 {
	slices.Sort(gone)
	slices.Sort(added)
	out := make([]uint32, 0, len(from)-len(gone)+len(added))
	for _, id := range from {
		if len(gone) > 0 && gone[0] == id {
			gone = gone[1:]
			continue
		}
		for len(added) > 0 && added[0] < id {
			out = append(out, added[0])
			added = added[1:]
		}
		out = append(out, id)
	}
	return append(out, added...)
}

// replacement returns the replacement of term t under replaced.
func replacement(replaced []uint32, t uint32) (uint32, bool) {
	for k := len(replaced) - 2; k >= 0; k -= 2 {
		if replaced[k] == t {
			return replaced[k+1], true
		}
	}
	return 0, false
}

// substitute returns the ID of literal id with replaced applied to its
// arguments and conditions; a literal that mentions no replaced term keeps
// its ID.
func (e *expansion) substitute(id uint32, replaced []uint32) uint32 {
	in := &e.lits[id]
	touched := false
	for _, t := range in.terms {
		if _, ok := replacement(replaced, t); ok {
			touched = true
			break
		}
	}
	if !touched {
		return id
	}
	sub := func(k int) logic.Term {
		if r, ok := replacement(replaced, in.terms[k]); ok {
			return e.term[r]
		}
		return e.term[in.terms[k]]
	}
	// Build the substituted literal in scratch storage, and copy it out
	// only if its key is new.
	l := in.lit
	e.args = e.args[:0]
	for k := range l.Args {
		e.args = append(e.args, sub(k))
	}
	e.cond = e.cond[:0]
	for k, c := range l.Cond {
		e.cond = append(e.cond, logic.Condition{Op: c.Op, L: sub(len(l.Args) + 2*k), R: sub(len(l.Args) + 2*k + 1)})
	}
	l.Args = e.args
	if len(l.Cond) > 0 {
		l.Cond = e.cond
	}
	e.buf = l.AppendKey(e.buf[:0])
	if id, ok := e.ids[string(e.buf)]; ok {
		return id
	}
	l.Args = slices.Clone(l.Args)
	if len(l.Cond) > 0 {
		l.Cond = slices.Clone(l.Cond)
	}
	return e.intern(l)
}

// clause materializes a state.
func (e *expansion) clause(s state) logic.Clause {
	c := logic.Clause{Head: e.lits[s.head].lit, Body: make([]logic.Literal, len(s.body))}
	for i, id := range s.body {
		c.Body[i] = e.lits[id].lit
	}
	return c
}

// addResult cleans up a final state (Section 3.2's clean-up step) and
// records the repaired clause. Results are keyed by head and sorted,
// de-duplicated body literal keys with the Induced flag cleared: nothing
// reads Induced once no repair literal is applied to the clause any more, so
// clauses that differ only there are one result (the last one found).
func (e *expansion) addResult(s state) {
	c := normalizeEqualities(e.clause(s))
	c = c.DropDanglingAuxiliaries()
	eq := make(map[[2]logic.Term]bool)
	for _, l := range c.Body {
		if l.Kind == logic.EqualityLit {
			eq[[2]logic.Term{l.Args[0], l.Args[1]}] = true
			eq[[2]logic.Term{l.Args[1], l.Args[0]}] = true
		}
	}
	out := logic.Clause{Head: c.Head}
	e.keyIDs = append(e.keyIDs[:0], e.resultID(c.Head))
	for _, l := range c.Body {
		if l.Kind == logic.SimilarityLit {
			if l.Args[0] == l.Args[1] || eq[[2]logic.Term{l.Args[0], l.Args[1]}] {
				continue
			}
		}
		// Trivial equalities carry no information in a repaired clause.
		if l.Kind == logic.EqualityLit && l.Args[0] == l.Args[1] {
			continue
		}
		id := e.resultID(l)
		if slices.Contains(e.keyIDs[1:], id) {
			continue
		}
		e.keyIDs = append(e.keyIDs, id)
		out.Body = append(out.Body, l)
	}
	slices.Sort(e.keyIDs[1:])
	e.buf = e.buf[:0]
	for _, id := range e.keyIDs {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, id)
	}
	// out shares literals with the interned ones; a stored result is a
	// copy.
	if i, ok := e.resultAt[string(e.buf)]; ok {
		if !identical(e.results[i], out) {
			e.results[i] = out.Clone()
		}
		return
	}
	e.resultAt[string(e.buf)] = len(e.results)
	e.results = append(e.results, out.Clone())
	e.resultKey = append(e.resultKey, slices.Clone(e.keyIDs))
}

// identical reports whether two clauses have equal literals in the same
// order, Induced flags included.
func identical(a, b logic.Clause) bool {
	if !a.Equal(b) {
		return false
	}
	for i := range a.Body {
		if a.Body[i].Induced != b.Body[i].Induced {
			return false
		}
	}
	return true
}

// resultID interns a literal of a repaired clause, ignoring Induced.
func (e *expansion) resultID(l logic.Literal) uint32 {
	l.Induced = false
	e.buf = l.AppendKey(e.buf[:0])
	id, ok := e.resultIDs[string(e.buf)]
	if !ok {
		id = uint32(len(e.resultLit))
		e.resultIDs[string(e.buf)] = id
		e.resultLit = append(e.resultLit, l)
	}
	return id
}

// sortedResults returns the results ordered by their rendered literals:
// the head, then the sorted body literals. Rendering happens only here,
// once per distinct literal.
func (e *expansion) sortedResults() []logic.Clause {
	if len(e.results) < 2 {
		return e.results
	}
	rendered := make([]string, len(e.resultLit))
	render := func(id uint32) string {
		if rendered[id] == "" {
			rendered[id] = e.resultLit[id].String()
		}
		return rendered[id]
	}
	keys := make([]string, len(e.results))
	order := make([]int, len(e.results))
	for i, ids := range e.resultKey {
		body := make([]string, len(ids)-1)
		for k, id := range ids[1:] {
			body[k] = render(id)
		}
		sort.Strings(body)
		keys[i] = render(ids[0]) + " <- " + strings.Join(body, " & ")
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	out := make([]logic.Clause, len(order))
	for i, k := range order {
		out[i] = e.results[k]
	}
	return out
}

func substituteLiteral(l logic.Literal, subst func(logic.Term) logic.Term) logic.Literal {
	out := l.Clone()
	for i, a := range out.Args {
		out.Args[i] = subst(a)
	}
	for i, c := range out.Cond {
		out.Cond[i] = logic.Condition{Op: c.Op, L: subst(c.L), R: subst(c.R)}
	}
	return out
}

// normalizeEqualities inlines equality-to-constant information: every
// variable whose equality class contains exactly one distinct constant is
// replaced by that constant (the equality literals introduced when ground
// bottom clauses split constant occurrences are resolved this way, so
// repaired ground clauses join on constants again). Classes without a
// constant are left untouched — the paper's repaired clauses keep
// variable-to-variable restriction equalities such as vx = vt. Classes with
// two or more distinct constants are contradictory and are left untouched.
func normalizeEqualities(c logic.Clause) logic.Clause {
	parent := make(map[logic.Term]logic.Term)
	var find func(x logic.Term) logic.Term
	find = func(x logic.Term) logic.Term {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, l := range c.Body {
		if l.Kind != logic.EqualityLit {
			continue
		}
		ra, rb := find(l.Args[0]), find(l.Args[1])
		if ra != rb {
			parent[ra] = rb
		}
	}
	if len(parent) == 0 {
		return c
	}
	// Count each class's distinct constants, remembering one of them.
	classConst := make(map[logic.Term]logic.Term)
	consts := make(map[logic.Term]int)
	for t := range parent {
		if t.IsConst() {
			root := find(t)
			consts[root]++
			classConst[root] = t
		}
	}
	// Inline classes that resolve to exactly one constant.
	repr := make(map[logic.Term]logic.Term)
	for t := range parent {
		root := find(t)
		if consts[root] != 1 {
			continue // no constant, or contradictory class: leave untouched
		}
		if k := classConst[root]; t != k {
			repr[t] = k
		}
	}
	if len(repr) == 0 {
		return c
	}
	subst := func(t logic.Term) logic.Term {
		if r, ok := repr[t]; ok {
			return r
		}
		return t
	}
	// Literals that mention no inlined term are shared with c.
	substitute := func(l logic.Literal) logic.Literal {
		for _, t := range l.AllTerms() {
			if _, ok := repr[t]; ok {
				return substituteLiteral(l, subst)
			}
		}
		return l
	}
	out := logic.Clause{Head: substitute(c.Head), Body: make([]logic.Literal, 0, len(c.Body))}
	for _, l := range c.Body {
		nl := substitute(l)
		if nl.Kind == logic.EqualityLit && nl.Args[0] == nl.Args[1] {
			continue
		}
		out.Body = append(out.Body, nl)
	}
	return out
}
