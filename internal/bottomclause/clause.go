package bottomclause

import (
	"slices"
	"strconv"

	"dlearn/internal/constraints"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// buildClause turns the collected tuples and similarity matches into the
// (ground) bottom clause of the example.
func (b *Builder) buildClause(example relation.Tuple, col collection, ground bool) logic.Clause {
	vc := logic.NewVarCounter("v")
	fresh := logic.NewVarCounter("f")

	// term maps a database constant to its clause term: the constant itself
	// for ground clauses and for values of Constant attributes (the ILP
	// mode-declaration analogue), a clause variable otherwise (one variable
	// per constant, as in Section 4.1).
	varOf := make(map[string]logic.Term)
	term := func(c string, constant bool) logic.Term {
		if ground || constant {
			return logic.Const(c)
		}
		if t, ok := varOf[c]; ok {
			return t
		}
		t := vc.Fresh()
		varOf[c] = t
		return t
	}

	var sims []simMatch
	if b.cfg.MDMode == MDSimilarity {
		sims = col.simMatches
	}
	// The relation literal of the k-th collected tuple sits at body index
	// len(sims)*4 + k, so the CFD violations among them can be located before
	// the body is built, and the body allocated once.
	schema := b.inst.Schema()
	violations := b.cfdViolations(col.tuples, 4*len(sims))

	// Head literal.
	headArgs := make([]logic.Term, len(example.Values))
	for i, v := range example.Values {
		headArgs[i] = term(v, b.target.Attrs[i].Constant)
	}
	clause := logic.Clause{
		Head: logic.Rel(b.target.Name, headArgs...),
		Body: make([]logic.Literal, 0, 4*len(sims)+len(col.tuples)+cfdViolationLiterals*len(violations)),
	}

	// Similarity literals and MD repair groups (Section 3.2): for each
	// approximate match probe ≈ value, add probe ≈ value, V(probe, f1),
	// V(value, f2) and f1 = f2 under the condition probe ≈ value. These are
	// emitted before the relation literals so that, during generalization,
	// clause prefixes already carry the similarity join constraints when the
	// relation literals are considered (the blocking-literal test of
	// Section 4.2 examines prefixes in body order).
	for i, sm := range sims {
		pt, vt := term(sm.Probe, false), term(sm.Value, false)
		cond := logic.Condition{Op: logic.CondSim, L: pt, R: vt}
		group := sm.MD.Name + "#" + strconv.Itoa(i)
		f1, f2 := fresh.Fresh(), fresh.Fresh()
		clause.Body = append(clause.Body,
			logic.Sim(pt, vt),
			logic.RepairInGroup(sm.MD.Name, group, logic.OriginMD, pt, f1, cond),
			logic.RepairInGroup(sm.MD.Name, group, logic.OriginMD, vt, f2, cond),
			logic.Eq(f1, f2),
		)
	}

	// Relation literals, one per collected tuple.
	for _, t := range col.tuples {
		rel := schema.Relation(t.Relation)
		args := make([]logic.Term, len(t.Values))
		for i, v := range t.Values {
			args[i] = term(v, rel.Attrs[i].Constant)
		}
		clause.Body = append(clause.Body, logic.Rel(t.Relation, args...))
	}

	for id, v := range violations {
		b.addCFDViolation(&clause, v.cfd, v.li, v.lj, v.lhs, v.rhs, fresh, id)
	}
	return clause
}

// cfdViolation is a violation of a CFD between the body literals at indices
// li and lj, on left-hand-side position lhs and right-hand-side position
// rhs.
type cfdViolation struct {
	cfd              constraints.CFD
	li, lj, lhs, rhs int
}

// cfdViolationLiterals is the number of body literals addCFDViolation adds.
const cfdViolationLiterals = 9

// cfdViolations lists the CFD violations among the collected tuples, whose
// relation literals start at body index base, in the order their repair
// groups are numbered (Section 4.1): every pair of collected tuples of one
// relation that violate a CFD with different right-hand-side values. Each
// gets four alternative repair groups (addCFDViolation).
func (b *Builder) cfdViolations(tuples []relation.Tuple, base int) []cfdViolation {
	if !b.cfg.UseCFDs || len(b.cfds) == 0 {
		return nil
	}
	schema := b.inst.Schema()
	byRel := make(map[string][]int)
	for k, t := range tuples {
		byRel[t.Relation] = append(byRel[t.Relation], k)
	}
	var out []cfdViolation
	for _, cfd := range b.cfds {
		lits := byRel[cfd.Relation]
		if len(lits) < 2 {
			continue
		}
		lhs := cfd.LHSIndexes(schema)
		rhs := cfd.RHSIndex(schema)
		if rhs < 0 || len(lhs) == 0 || slices.Min(lhs) < 0 {
			continue
		}
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				t1, t2 := tuples[lits[i]], tuples[lits[j]]
				if !cfd.TupleViolates(schema, t1, t2) {
					continue
				}
				if t1.Values[rhs] == t2.Values[rhs] {
					// Constant-pattern-only violation; value modification
					// to the pattern constant is handled at the instance
					// level, not with clause repair literals.
					continue
				}
				out = append(out, cfdViolation{cfd: cfd, li: base + lits[i], lj: base + lits[j], lhs: lhs[0], rhs: rhs})
			}
		}
	}
	return out
}

// addCFDViolation appends the repair machinery for one CFD violation between
// the body literals at indices li and lj. Following Section 3.2, the
// occurrence of the shared left-hand-side term in each violating literal is
// first replaced by a fresh variable linked back with induced equality
// literals, so that a repair can modify one occurrence without touching the
// others. Four alternative repair groups are then added: break either LHS
// occurrence with a fresh value, or unify the RHS values in either
// direction (the minimal-repair form that reuses existing variables).
func (b *Builder) addCFDViolation(clause *logic.Clause, cfd constraints.CFD, li, lj, lhsPos, rhsPos int, fresh *logic.VarCounter, violationID int) {
	l1, l2 := clause.Body[li], clause.Body[lj]
	orig1 := l1.Args[lhsPos]
	orig2 := l2.Args[lhsPos]
	z := l1.Args[rhsPos]
	t := l2.Args[rhsPos]

	// Split the LHS occurrences: each violating literal gets its own fresh
	// variable for the shared value, tied to the original term (a variable
	// in variabilized clauses, the constant itself in ground clauses) with
	// induced equality literals.
	x1 := fresh.Fresh()
	x2 := fresh.Fresh()
	l1.Args[lhsPos] = x1
	l2.Args[lhsPos] = x2
	clause.Body[li] = l1
	clause.Body[lj] = l2
	clause.Body = append(clause.Body,
		logic.InducedEq(x1, orig1),
		logic.InducedEq(x2, orig2),
		logic.InducedEq(x1, x2),
	)

	cond := []logic.Condition{
		{Op: logic.CondEq, L: x1, R: x2},
		{Op: logic.CondNeq, L: z, R: t},
	}
	group := cfd.Name + "#" + strconv.Itoa(violationID) + "#"

	// Alternative 1 and 2: modify one of the LHS occurrences to a fresh
	// value, breaking the agreement.
	f1 := fresh.Fresh()
	clause.Body = append(clause.Body,
		logic.RepairInGroup(cfd.Name, group+"lhs1", logic.OriginCFD, x1, f1, cond...),
		logic.Neq(f1, x2),
	)
	f2 := fresh.Fresh()
	clause.Body = append(clause.Body,
		logic.RepairInGroup(cfd.Name, group+"lhs2", logic.OriginCFD, x2, f2, cond...),
		logic.Neq(f2, x1),
	)
	// Alternative 3 and 4: unify the RHS values (minimal repair reusing the
	// existing terms, Section 4.1).
	clause.Body = append(clause.Body,
		logic.RepairInGroup(cfd.Name, group+"rhs1", logic.OriginCFD, z, t, cond...),
		logic.RepairInGroup(cfd.Name, group+"rhs2", logic.OriginCFD, t, z, cond...),
	)
}
