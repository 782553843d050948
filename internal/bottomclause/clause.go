package bottomclause

import (
	"fmt"

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

	// Head literal.
	headArgs := make([]logic.Term, len(example.Values))
	for i, v := range example.Values {
		headArgs[i] = term(v, b.target.Attrs[i].Constant)
	}
	clause := logic.Clause{Head: logic.Rel(b.target.Name, headArgs...)}

	// Similarity literals and MD repair groups (Section 3.2): for each
	// approximate match probe ≈ value, add probe ≈ value, V(probe, f1),
	// V(value, f2) and f1 = f2 under the condition probe ≈ value. These are
	// emitted before the relation literals so that, during generalization,
	// clause prefixes already carry the similarity join constraints when the
	// relation literals are considered (the blocking-literal test of
	// Section 4.2 examines prefixes in body order).
	if b.cfg.MDMode == MDSimilarity {
		for i, sm := range col.simMatches {
			pt, vt := term(sm.Probe, false), term(sm.Value, false)
			cond := logic.Condition{Op: logic.CondSim, L: pt, R: vt}
			group := fmt.Sprintf("%s#%d", sm.MD.Name, i)
			f1, f2 := fresh.Fresh(), fresh.Fresh()
			clause.Body = append(clause.Body,
				logic.Sim(pt, vt),
				logic.RepairInGroup(sm.MD.Name, group, logic.OriginMD, pt, f1, cond),
				logic.RepairInGroup(sm.MD.Name, group, logic.OriginMD, vt, f2, cond),
				logic.Eq(f1, f2),
			)
		}
	}

	// Relation literals, one per collected tuple. Remember, per relation,
	// the body index and term list of each literal so CFD violations can be
	// located afterwards.
	schema := b.inst.Schema()
	type bodyLit struct {
		index int
		tuple relation.Tuple
	}
	byRel := make(map[string][]bodyLit)
	for _, t := range col.tuples {
		rel := schema.Relation(t.Relation)
		args := make([]logic.Term, len(t.Values))
		for i, v := range t.Values {
			args[i] = term(v, rel.Attrs[i].Constant)
		}
		clause.Body = append(clause.Body, logic.Rel(t.Relation, args...))
		byRel[t.Relation] = append(byRel[t.Relation], bodyLit{index: len(clause.Body) - 1, tuple: t})
	}

	// CFD repair groups (Section 4.1): for every pair of collected tuples of
	// one relation that violate a CFD, add the four alternative repair
	// groups — break either left-hand-side occurrence with a fresh variable,
	// or unify the right-hand side in either direction (the minimal-repair
	// form that reuses existing variables).
	if b.cfg.UseCFDs {
		violationID := 0
		for _, cfd := range b.cfds {
			lits := byRel[cfd.Relation]
			if len(lits) < 2 {
				continue
			}
			lhs := cfd.LHSIndexes(schema)
			rhs := cfd.RHSIndex(schema)
			if rhs < 0 || len(lhs) == 0 {
				continue
			}
			valid := true
			for _, i := range lhs {
				if i < 0 {
					valid = false
				}
			}
			if !valid {
				continue
			}
			for i := 0; i < len(lits); i++ {
				for j := i + 1; j < len(lits); j++ {
					t1, t2 := lits[i].tuple, lits[j].tuple
					if !cfd.TupleViolates(schema, t1, t2) {
						continue
					}
					if t1.Values[rhs] == t2.Values[rhs] {
						// Constant-pattern-only violation; value modification
						// to the pattern constant is handled at the instance
						// level, not with clause repair literals.
						continue
					}
					b.addCFDViolation(&clause, cfd, lits[i].index, lits[j].index, lhs[0], rhs, fresh, violationID)
					violationID++
				}
			}
		}
	}

	return clause
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
	mk := func(kind string) string {
		return fmt.Sprintf("%s#%d#%s", cfd.Name, violationID, kind)
	}

	// Alternative 1 and 2: modify one of the LHS occurrences to a fresh
	// value, breaking the agreement.
	f1 := fresh.Fresh()
	clause.Body = append(clause.Body,
		logic.RepairInGroup(cfd.Name, mk("lhs1"), logic.OriginCFD, x1, f1, cond...),
		logic.Neq(f1, x2),
	)
	f2 := fresh.Fresh()
	clause.Body = append(clause.Body,
		logic.RepairInGroup(cfd.Name, mk("lhs2"), logic.OriginCFD, x2, f2, cond...),
		logic.Neq(f2, x1),
	)
	// Alternative 3 and 4: unify the RHS values (minimal repair reusing the
	// existing terms, Section 4.1).
	clause.Body = append(clause.Body,
		logic.RepairInGroup(cfd.Name, mk("rhs1"), logic.OriginCFD, z, t, cond...),
		logic.RepairInGroup(cfd.Name, mk("rhs2"), logic.OriginCFD, t, z, cond...),
	)
}
