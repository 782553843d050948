package subsumption

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"dlearn/internal/logic"
	"dlearn/internal/repair"
)

func checker() *Checker { return New(Options{}) }

// subsumes is the one-shot θ-subsumption test c ⊆θ d (Definition 4.4)
// through the package's single entry point: prepare d, compile c and probe
// once.
func subsumes(ch *Checker, c, d logic.Clause) (bool, logic.Substitution) {
	return probeClauses(context.Background(), ch, c, d, false)
}

// subsumesPlain is subsumes without the repair-literal closure requirement.
func subsumesPlain(ch *Checker, c, d logic.Clause) (bool, logic.Substitution) {
	return probeClauses(context.Background(), ch, c, d, true)
}

func probeClauses(ctx context.Context, ch *Checker, c, d logic.Clause, plain bool) (bool, logic.Substitution) {
	ok, theta, _ := witness(ctx, CompileCandidate(c), ch.Prepare(d), plain)
	return ok, theta
}

// witness probes p with cc like Probe and also returns the substitution θ
// the search found (nil when cc does not subsume p), which Probe discards.
func witness(ctx context.Context, cc *CompiledCandidate, p *Prepared, plain bool) (bool, logic.Substitution, ProbeStats) {
	theta := logic.Substitution{}
	ok, st := cc.probe(ctx, p, plain, theta)
	if !ok {
		theta = nil
	}
	return ok, theta, st
}

// equivalent reports whether a and b are θ-equivalent (each subsumes the
// other), the relation the minimal-generalization tests use
// (Proposition 4.8).
func equivalent(ch *Checker, a, b logic.Clause) bool {
	ab, _ := subsumes(ch, a, b)
	ba, _ := subsumes(ch, b, a)
	return ab && ba
}

func TestSubsumesPaperExample(t *testing.T) {
	// C1: highGrossing(x) <- movies(x, y, z)
	// C2: highGrossing(a) <- movies(a, b, c), mov2genres(b, comedy)
	c1 := logic.NewClause(
		logic.Rel("highGrossing", logic.Var("x")),
		logic.Rel("movies", logic.Var("x"), logic.Var("y"), logic.Var("z")),
	)
	c2 := logic.NewClause(
		logic.Rel("highGrossing", logic.Var("a")),
		logic.Rel("movies", logic.Var("a"), logic.Var("b"), logic.Var("c")),
		logic.Rel("mov2genres", logic.Var("b"), logic.Const("comedy")),
	)
	ok, theta := subsumes(checker(), c1, c2)
	if !ok {
		t.Fatal("C1 should θ-subsume C2 (Section 4.2 example)")
	}
	if theta["x"] != logic.Var("a") {
		t.Errorf("expected x/a in substitution, got %v", theta)
	}
	if ok, _ := subsumes(checker(), c2, c1); ok {
		t.Fatal("C2 must not θ-subsume C1")
	}
}

func TestSubsumesGroundClause(t *testing.T) {
	c := logic.NewClause(
		logic.Rel("highGrossing", logic.Var("x")),
		logic.Rel("movies", logic.Var("y"), logic.Var("x"), logic.Var("z")),
		logic.Rel("mov2genres", logic.Var("y"), logic.Const("comedy")),
	)
	ground := logic.NewClause(
		logic.Rel("highGrossing", logic.Const("Superbad (2007)")),
		logic.Rel("movies", logic.Const("m1"), logic.Const("Superbad (2007)"), logic.Const("2007")),
		logic.Rel("mov2genres", logic.Const("m1"), logic.Const("comedy")),
		logic.Rel("mov2countries", logic.Const("m1"), logic.Const("c1")),
	)
	if ok, _ := subsumes(checker(), c, ground); !ok {
		t.Fatal("clause should subsume the ground bottom clause of its covered example")
	}
	groundDrama := logic.NewClause(
		logic.Rel("highGrossing", logic.Const("Orphanage (2007)")),
		logic.Rel("movies", logic.Const("m3"), logic.Const("Orphanage (2007)"), logic.Const("2007")),
		logic.Rel("mov2genres", logic.Const("m3"), logic.Const("drama")),
	)
	if ok, _ := subsumes(checker(), c, groundDrama); ok {
		t.Fatal("comedy clause must not subsume a drama-only ground clause")
	}
}

func TestSubsumesConstantMismatch(t *testing.T) {
	c := logic.NewClause(
		logic.Rel("p", logic.Var("x")),
		logic.Rel("q", logic.Var("x"), logic.Const("a")),
	)
	d := logic.NewClause(
		logic.Rel("p", logic.Const("1")),
		logic.Rel("q", logic.Const("1"), logic.Const("b")),
	)
	if ok, _ := subsumes(checker(), c, d); ok {
		t.Fatal("constant a cannot map to constant b")
	}
}

func TestSubsumesHeadMismatch(t *testing.T) {
	c := logic.NewClause(logic.Rel("p", logic.Var("x")))
	d := logic.NewClause(logic.Rel("q", logic.Var("x")))
	if ok, _ := subsumes(checker(), c, d); ok {
		t.Fatal("different head predicates cannot subsume")
	}
	d2 := logic.NewClause(logic.Rel("p", logic.Var("x"), logic.Var("y")))
	if ok, _ := subsumes(checker(), c, d2); ok {
		t.Fatal("different head arities cannot subsume")
	}
}

func TestSubsumesRequiresConsistentBinding(t *testing.T) {
	// p(x) <- q(x, x) requires both argument positions to be equal in d.
	c := logic.NewClause(
		logic.Rel("p", logic.Var("x")),
		logic.Rel("q", logic.Var("x"), logic.Var("x")),
	)
	dGood := logic.NewClause(
		logic.Rel("p", logic.Const("a")),
		logic.Rel("q", logic.Const("a"), logic.Const("a")),
	)
	dBad := logic.NewClause(
		logic.Rel("p", logic.Const("a")),
		logic.Rel("q", logic.Const("a"), logic.Const("b")),
	)
	if ok, _ := subsumes(checker(), c, dGood); !ok {
		t.Fatal("repeated variable should map onto repeated constant")
	}
	if ok, _ := subsumes(checker(), c, dBad); ok {
		t.Fatal("repeated variable must not map onto distinct constants")
	}
}

func TestSubsumesEqualityAndSimilarityConstraints(t *testing.T) {
	// c requires x ~ t; d provides the similarity literal between the images.
	c := logic.NewClause(
		logic.Rel("p", logic.Var("x")),
		logic.Rel("r", logic.Var("t")),
		logic.Sim(logic.Var("x"), logic.Var("t")),
	)
	dWith := logic.NewClause(
		logic.Rel("p", logic.Const("a")),
		logic.Rel("r", logic.Const("b")),
		logic.Sim(logic.Const("a"), logic.Const("b")),
	)
	dWithout := logic.NewClause(
		logic.Rel("p", logic.Const("a")),
		logic.Rel("r", logic.Const("b")),
	)
	if ok, _ := subsumes(checker(), c, dWith); !ok {
		t.Fatal("similarity constraint satisfied by d's similarity literal should subsume")
	}
	if ok, _ := subsumes(checker(), c, dWithout); ok {
		t.Fatal("similarity constraint with no support in d must fail")
	}
	// Equality constraint satisfied via d's equality literal.
	ceq := logic.NewClause(
		logic.Rel("p", logic.Var("x")),
		logic.Rel("r", logic.Var("t")),
		logic.Eq(logic.Var("x"), logic.Var("t")),
	)
	deq := logic.NewClause(
		logic.Rel("p", logic.Const("a")),
		logic.Rel("r", logic.Const("b")),
		logic.Eq(logic.Const("a"), logic.Const("b")),
	)
	if ok, _ := subsumes(checker(), ceq, deq); !ok {
		t.Fatal("equality constraint supported by d should subsume")
	}
	if ok, _ := subsumes(checker(), ceq, dWithout); ok {
		t.Fatal("equality constraint with distinct unrelated images must fail")
	}
}

func TestSubsumesInequalityConstraint(t *testing.T) {
	c := logic.NewClause(
		logic.Rel("p", logic.Var("x")),
		logic.Rel("r", logic.Var("x"), logic.Var("y")),
		logic.Neq(logic.Var("x"), logic.Var("y")),
	)
	dDistinct := logic.NewClause(
		logic.Rel("p", logic.Const("a")),
		logic.Rel("r", logic.Const("a"), logic.Const("b")),
	)
	dSame := logic.NewClause(
		logic.Rel("p", logic.Const("a")),
		logic.Rel("r", logic.Const("a"), logic.Const("a")),
	)
	if ok, _ := subsumes(checker(), c, dDistinct); !ok {
		t.Fatal("inequality over distinct constants should hold")
	}
	if ok, _ := subsumes(checker(), c, dSame); ok {
		t.Fatal("inequality over identical constants must fail")
	}
}

// mdClause builds a clause with an MD repair-literal pair, as produced by
// bottom-clause construction.
func mdClause() logic.Clause {
	x, tt, y, z := logic.Var("x"), logic.Var("t"), logic.Var("y"), logic.Var("z")
	vx, vt := logic.Var("vx"), logic.Var("vt")
	cond := logic.Condition{Op: logic.CondSim, L: x, R: tt}
	return logic.NewClause(
		logic.Rel("highGrossing", x),
		logic.Rel("movies", y, tt, z),
		logic.Sim(x, tt),
		logic.RepairInGroup("md1", "md1#0", logic.OriginMD, x, vx, cond),
		logic.RepairInGroup("md1", "md1#0", logic.OriginMD, tt, vt, cond),
		logic.Eq(vx, vt),
	)
}

// groundMDClause is the ground bottom clause counterpart of mdClause for a
// specific example.
func groundMDClause() logic.Clause {
	x, tt := logic.Const("Superbad"), logic.Const("Superbad (2007)")
	w1, w2 := logic.Var("w1"), logic.Var("w2")
	cond := logic.Condition{Op: logic.CondSim, L: x, R: tt}
	return logic.NewClause(
		logic.Rel("highGrossing", x),
		logic.Rel("movies", logic.Const("m1"), tt, logic.Const("2007")),
		logic.Sim(x, tt),
		logic.RepairInGroup("md1", "md1#0", logic.OriginMD, x, w1, cond),
		logic.RepairInGroup("md1", "md1#0", logic.OriginMD, tt, w2, cond),
		logic.Eq(w1, w2),
	)
}

func TestSubsumesWithRepairLiterals(t *testing.T) {
	if ok, _ := subsumes(checker(), mdClause(), groundMDClause()); !ok {
		t.Fatal("clause with MD repair literals should subsume the matching ground bottom clause")
	}
}

func TestDefinition44ClosureRequirement(t *testing.T) {
	// c maps movies(...) but has no repair literal; the ground clause's
	// movies literal has connected repair literals, so Definition 4.4
	// rejects the mapping while plain subsumption accepts it.
	c := logic.NewClause(
		logic.Rel("highGrossing", logic.Var("x")),
		logic.Rel("movies", logic.Var("y"), logic.Var("t"), logic.Var("z")),
	)
	d := groundMDClause()
	if ok, _ := subsumes(checker(), c, d); ok {
		t.Fatal("Definition 4.4 requires connected repair literals of d to be mapped")
	}
	if ok, _ := subsumesPlain(checker(), c, d); !ok {
		t.Fatal("plain θ-subsumption should ignore the closure requirement")
	}
}

func TestSubsumptionSoundnessTheorem46(t *testing.T) {
	// Theorem 4.6: if C θ-subsumes D (with repair literals), then every
	// repaired clause of C subsumes some repaired clause of D.
	c := mdClause()
	d := groundMDClause()
	if ok, _ := subsumes(checker(), c, d); !ok {
		t.Fatal("precondition: c subsumes d")
	}
	cReps, _ := repair.RepairedClausesContext(context.Background(), c, repair.Options{})
	dReps, _ := repair.RepairedClausesContext(context.Background(), d, repair.Options{})
	for _, cr := range cReps {
		found := false
		for _, dr := range dReps {
			if ok, _ := subsumesPlain(checker(), cr, dr); ok {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("repaired clause %v subsumes no repaired clause of d — soundness violated", cr)
		}
	}
}

func TestEquivalent(t *testing.T) {
	a := logic.NewClause(
		logic.Rel("p", logic.Var("x")),
		logic.Rel("q", logic.Var("x"), logic.Var("y")),
	)
	b := logic.NewClause(
		logic.Rel("p", logic.Var("u")),
		logic.Rel("q", logic.Var("u"), logic.Var("w")),
		logic.Rel("q", logic.Var("u"), logic.Var("v")),
	)
	if !equivalent(checker(), a, b) {
		t.Fatal("a and b are θ-equivalent (b's extra literal maps onto the same image)")
	}
	c := logic.NewClause(
		logic.Rel("p", logic.Var("x")),
		logic.Rel("q", logic.Var("x"), logic.Const("k")),
	)
	if equivalent(checker(), a, c) {
		t.Fatal("a is strictly more general than c")
	}
}

func TestSearchBudgetExhaustion(t *testing.T) {
	// A tiny node budget must make the checker give up (conservatively
	// reporting no subsumption) rather than hang.
	c := logic.NewClause(
		logic.Rel("p", logic.Var("x")),
		logic.Rel("q", logic.Var("x"), logic.Var("a")),
		logic.Rel("q", logic.Var("a"), logic.Var("b")),
		logic.Rel("q", logic.Var("b"), logic.Var("c")),
		logic.Rel("q", logic.Var("c"), logic.Var("d")),
	)
	var body []logic.Literal
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			body = append(body, logic.Rel("q", logic.Const(string(rune('a'+i))), logic.Const(string(rune('a'+j)))))
		}
	}
	d := logic.NewClause(logic.Rel("p", logic.Const("a")), body...)
	tiny := New(Options{MaxNodes: 3})
	if ok, _ := subsumes(tiny, c, d); ok {
		t.Fatal("budget of 3 nodes cannot complete this search")
	}
	full := New(Options{})
	if ok, _ := subsumes(full, c, d); !ok {
		t.Fatal("full budget should find the chain mapping")
	}
}

// Property: every clause subsumes itself (reflexivity).
func TestPropertySubsumptionReflexive(t *testing.T) {
	ch := checker()
	clauses := []logic.Clause{
		mdClause(), groundMDClause(),
		logic.NewClause(logic.Rel("p", logic.Var("x")), logic.Rel("q", logic.Var("x"), logic.Const("c"))),
	}
	for _, c := range clauses {
		if ok, _ := subsumes(ch, c, c); !ok {
			t.Errorf("clause does not subsume itself: %v", c)
		}
	}
}

// Property: dropping body literals from a clause yields a generalization —
// the shorter clause subsumes the original (monotonicity used by ARMG).
func TestPropertyDroppingLiteralsGeneralizes(t *testing.T) {
	ch := checker()
	base := logic.NewClause(
		logic.Rel("p", logic.Var("x")),
		logic.Rel("q", logic.Var("x"), logic.Var("y")),
		logic.Rel("r", logic.Var("y"), logic.Const("c")),
		logic.Rel("s", logic.Var("y"), logic.Var("z")),
	)
	f := func(dropRaw uint8) bool {
		drop := int(dropRaw) % base.Length()
		shorter := base.Clone()
		shorter.Body = slices.Delete(shorter.Body, drop, drop+1)
		shorter = shorter.PruneUnconnected()
		ok, _ := subsumes(ch, shorter, base)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
