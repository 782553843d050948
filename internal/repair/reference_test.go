package repair

import (
	"context"
	"sort"
	"strings"

	"dlearn/internal/logic"
)

// This file keeps the repaired-clause expansion as it was before the
// interned expansion of clause.go — every state rendered to its Literal
// strings, groups marked by rendered key, conditions evaluated over
// rendered terms — as a test-only oracle for FuzzRepairedClauses. No
// production path calls it. Its keys cannot tell Var("g") from Const("g")
// or an induced equality from a plain one, which the fuzz keeps out of its
// inputs.

// refClauseKey is the string key the expansion used: the rendered head,
// then the sorted rendered body literals.
func refClauseKey(c logic.Clause) string {
	keys := make([]string, len(c.Body))
	for i, l := range c.Body {
		keys[i] = l.String()
	}
	sort.Strings(keys)
	return c.Head.String() + " <- " + strings.Join(keys, " & ")
}

// refGroup is one repair operation: the repair literals sharing a Group tag.
type refGroup struct {
	name     string
	literals []logic.Literal
}

// refCollectGroups extracts the repair groups of a clause in deterministic
// order, restricted to the given origin (OriginNone means all).
func refCollectGroups(c logic.Clause, origin logic.RepairOrigin) []refGroup {
	byName := make(map[string][]logic.Literal)
	var order []string
	for _, l := range c.Body {
		if !l.IsRepair() {
			continue
		}
		if origin != logic.OriginNone && l.Origin != origin {
			continue
		}
		g := l.Group
		if g == "" {
			g = l.Pred
		}
		if _, ok := byName[g]; !ok {
			order = append(order, g)
		}
		byName[g] = append(byName[g], l)
	}
	sort.Strings(order)
	out := make([]refGroup, 0, len(order))
	for _, name := range order {
		out = append(out, refGroup{name: name, literals: byName[name]})
	}
	return out
}

// refFacts indexes the restriction literals of a clause so repair-group
// conditions can be evaluated. Induced equality literals support equality of
// the original variables but are never rewritten by substitutions, which is
// what prevents two alternative fixes of the same CFD violation from both
// firing (see the package comment).
type refFacts struct {
	eq  map[[2]string]bool
	sim map[[2]string]bool
}

func refFactsOf(c logic.Clause) refFacts {
	f := refFacts{eq: make(map[[2]string]bool), sim: make(map[[2]string]bool)}
	add := func(m map[[2]string]bool, a, b logic.Term) {
		m[[2]string{a.String(), b.String()}] = true
		m[[2]string{b.String(), a.String()}] = true
	}
	for _, l := range c.Body {
		switch l.Kind {
		case logic.EqualityLit:
			add(f.eq, l.Args[0], l.Args[1])
		case logic.SimilarityLit:
			add(f.sim, l.Args[0], l.Args[1])
		}
	}
	return f
}

// holds evaluates one condition conjunct against the clause facts.
func (f refFacts) holds(c logic.Condition) bool {
	l, r := c.L, c.R
	switch c.Op {
	case logic.CondEq:
		if l == r {
			return true
		}
		return f.eq[[2]string{l.String(), r.String()}]
	case logic.CondSim:
		if l == r {
			return true
		}
		return f.sim[[2]string{l.String(), r.String()}]
	case logic.CondNeq:
		// Distinct terms with no equality literal between them (Section 4.1).
		if l == r {
			return false
		}
		return !f.eq[[2]string{l.String(), r.String()}]
	default:
		return false
	}
}

// refConditionHolds evaluates the conjunction of conditions of a repair group.
// All literals of a group share the same condition; the first literal's
// condition is used.
func refConditionHolds(g refGroup, facts refFacts) bool {
	if len(g.literals) == 0 {
		return false
	}
	for _, cond := range g.literals[0].Cond {
		if !facts.holds(cond) {
			return false
		}
	}
	return true
}

// refApplyGroup applies one repair group to the clause: every literal V(x, vx)
// of the group substitutes x := vx in the head, in relation literals, in
// non-induced restriction literals, and in the arguments and conditions of
// the remaining repair literals. Similarity literals mentioning a replaced
// term are removed (the fresh value's similarity to other values is
// unknown). Induced equality literals are left untouched; they are cleaned
// up at the end if they dangle. The group's own literals are removed.
func refApplyGroup(c logic.Clause, g refGroup) logic.Clause {
	replaced := make(map[logic.Term]logic.Term, len(g.literals))
	inGroup := make(map[string]bool, len(g.literals))
	for _, l := range g.literals {
		replaced[l.Args[0]] = l.Args[1]
		inGroup[l.String()] = true
	}
	subst := func(t logic.Term) logic.Term {
		if r, ok := replaced[t]; ok {
			return r
		}
		return t
	}
	out := logic.Clause{Head: refSubstituteLiteral(c.Head, subst)}
	for _, l := range c.Body {
		if l.IsRepair() && inGroup[l.String()] {
			continue
		}
		switch {
		case l.Kind == logic.SimilarityLit:
			// Drop similarity literals that mention a replaced term.
			if _, ok := replaced[l.Args[0]]; ok {
				continue
			}
			if _, ok := replaced[l.Args[1]]; ok {
				continue
			}
			out.Body = append(out.Body, l.Clone())
		case l.Kind == logic.EqualityLit && l.Induced:
			out.Body = append(out.Body, l.Clone())
		default:
			out.Body = append(out.Body, refSubstituteLiteral(l, subst))
		}
	}
	return out
}

// refDropGroup removes the literals of a group without applying it.
func refDropGroup(c logic.Clause, g refGroup) logic.Clause {
	inGroup := make(map[string]bool, len(g.literals))
	for _, l := range g.literals {
		inGroup[l.String()] = true
	}
	out := logic.Clause{Head: c.Head.Clone()}
	for _, l := range c.Body {
		if l.IsRepair() && inGroup[l.String()] {
			continue
		}
		out.Body = append(out.Body, l.Clone())
	}
	return out
}

func refSubstituteLiteral(l logic.Literal, subst func(logic.Term) logic.Term) logic.Literal {
	out := l.Clone()
	for i, a := range out.Args {
		out.Args[i] = subst(a)
	}
	for i, c := range out.Cond {
		out.Cond[i] = logic.Condition{Op: c.Op, L: subst(c.L), R: subst(c.R)}
	}
	return out
}

// refCleanupRepaired normalizes a repaired clause (Section 3.2's final
// clean-up step): equality classes are collapsed onto a single
// representative (the class constant when there is exactly one), restriction
// and induced-equality literals whose variables no longer appear in any
// schema literal are removed, similarity literals between terms already
// asserted equal are removed, and body literals are de-duplicated.
func refCleanupRepaired(c logic.Clause) logic.Clause {
	c = refNormalizeEqualities(c)
	c = c.DropDanglingAuxiliaries()
	eq := make(map[[2]string]bool)
	for _, l := range c.Body {
		if l.Kind == logic.EqualityLit {
			eq[[2]string{l.Args[0].String(), l.Args[1].String()}] = true
			eq[[2]string{l.Args[1].String(), l.Args[0].String()}] = true
		}
	}
	out := logic.Clause{Head: c.Head}
	seen := make(map[string]bool, len(c.Body))
	for _, l := range c.Body {
		if l.Kind == logic.SimilarityLit {
			if l.Args[0] == l.Args[1] || eq[[2]string{l.Args[0].String(), l.Args[1].String()}] {
				continue
			}
		}
		// Trivial equalities carry no information in a repaired clause.
		if l.Kind == logic.EqualityLit && l.Args[0] == l.Args[1] {
			continue
		}
		k := l.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Body = append(out.Body, l)
	}
	return out
}

// refNormalizeEqualities inlines equality-to-constant information: every
// variable whose equality class contains exactly one distinct constant is
// replaced by that constant (the equality literals introduced when ground
// bottom clauses split constant occurrences are resolved this way, so
// repaired ground clauses join on constants again). Classes without a
// constant are left untouched — the paper's repaired clauses keep
// variable-to-variable restriction equalities such as vx = vt. Classes with
// two or more distinct constants are contradictory and are left untouched.
func refNormalizeEqualities(c logic.Clause) logic.Clause {
	classes := make(map[string][]logic.Term)
	parent := make(map[string]string)
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	terms := make(map[string]logic.Term)
	for _, l := range c.Body {
		if l.Kind != logic.EqualityLit {
			continue
		}
		a, b := l.Args[0], l.Args[1]
		terms[a.String()] = a
		terms[b.String()] = b
		union(a.String(), b.String())
	}
	if len(terms) == 0 {
		return c
	}
	for key, t := range terms {
		root := find(key)
		classes[root] = append(classes[root], t)
	}
	// Inline classes that resolve to exactly one constant.
	repr := make(map[logic.Term]logic.Term)
	for _, members := range classes {
		var consts []logic.Term
		for _, m := range members {
			if m.IsConst() {
				consts = append(consts, m)
			}
		}
		if len(consts) != 1 {
			continue // no constant, or contradictory class: leave untouched
		}
		for _, m := range members {
			if m != consts[0] {
				repr[m] = consts[0]
			}
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
	out := logic.Clause{Head: refSubstituteLiteral(c.Head, subst)}
	for _, l := range c.Body {
		nl := refSubstituteLiteral(l, subst)
		if nl.Kind == logic.EqualityLit && nl.Args[0] == nl.Args[1] {
			continue
		}
		out.Body = append(out.Body, nl)
	}
	return out
}

// referenceRepairedClauses is RepairedClausesContext as it was, keyed by
// rendered strings, with the truncation flag added: a cap or cancellation
// stopping a state from being explored cuts the expansion.
func referenceRepairedClauses(ctx context.Context, c logic.Clause, opts Options) ([]logic.Clause, bool) {
	type state struct {
		clause logic.Clause
	}
	maxClauses, maxStates := opts.maxClauses(), opts.maxStates()
	results := make(map[string]logic.Clause)
	visited := make(map[string]bool)
	statesExplored := 0
	cut := false

	var explore func(s state)
	explore = func(s state) {
		if len(results) >= maxClauses || statesExplored >= maxStates {
			cut = true
			return
		}
		if statesExplored%64 == 0 && ctx.Err() != nil {
			statesExplored = maxStates
			cut = true
			return
		}
		statesExplored++
		key := refClauseKey(s.clause)
		if visited[key] {
			return
		}
		visited[key] = true

		groups := refCollectGroups(s.clause, opts.Origin)
		if len(groups) == 0 {
			final := refCleanupRepaired(s.clause)
			results[refClauseKey(final)] = final
			return
		}
		facts := refFactsOf(s.clause)
		applicable := make([]refGroup, 0, len(groups))
		for _, g := range groups {
			if refConditionHolds(g, facts) {
				applicable = append(applicable, g)
			}
		}
		if len(applicable) == 0 {
			// No group can fire: drop them all and finish.
			next := s.clause
			for _, g := range groups {
				next = refDropGroup(next, g)
			}
			final := refCleanupRepaired(next)
			results[refClauseKey(final)] = final
			return
		}
		// Branch on which applicable group fires first.
		for k, g := range applicable {
			explore(state{clause: refApplyGroup(s.clause, g)})
			if len(results) >= maxClauses || statesExplored >= maxStates {
				// Siblings left unexplored are a cut.
				cut = cut || k < len(applicable)-1
				return
			}
		}
	}
	explore(state{clause: c})

	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]logic.Clause, 0, len(keys))
	for _, k := range keys {
		out = append(out, results[k])
	}
	return out, cut
}
