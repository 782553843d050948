package subsumption

import (
	"context"
	"testing"

	"dlearn/internal/logic"
)

// bruteForceSubsumes is a reference θ-subsumption checker: it enumerates
// every mapping of c's mappable literals onto d's literals, binding
// variables by exhaustive search with copy-on-write substitutions. It shares
// no code with the optimized backtracking search (no compilation, no
// candidate filtering, no ordering) so the two can cross-check each other.
// Exponential; only usable on the small clauses of tests and fuzzing.
func bruteForceSubsumes(c, d logic.Clause, skipClosure bool) bool {
	if c.Head.Pred != d.Head.Pred || len(c.Head.Args) != len(d.Head.Args) {
		return false
	}
	theta := make(map[string]logic.Term)
	if !bruteBind(theta, c.Head.Args, d.Head.Args) {
		return false
	}
	var lits []int
	for i, l := range c.Body {
		if l.IsRelation() || l.IsRepair() {
			lits = append(lits, i)
		}
	}
	eq := newUnionFind()
	sim := make(map[[2]logic.Term]bool)
	for _, l := range d.Body {
		switch l.Kind {
		case logic.EqualityLit:
			eq.union(l.Args[0], l.Args[1])
		case logic.SimilarityLit:
			sim[[2]logic.Term{l.Args[0], l.Args[1]}] = true
			sim[[2]logic.Term{l.Args[1], l.Args[0]}] = true
		}
	}
	eqc := eq.freeze()

	var rec func(k int, theta map[string]logic.Term, mapped map[int]bool) bool
	rec = func(k int, theta map[string]logic.Term, mapped map[int]bool) bool {
		if k == len(lits) {
			if !bruteConstraintsOK(c, theta, eqc, sim) {
				return false
			}
			return skipClosure || bruteClosureOK(d, mapped)
		}
		cl := c.Body[lits[k]]
		for di, dl := range d.Body {
			if !dl.IsRelation() && !dl.IsRepair() {
				continue
			}
			if predKey(cl) != predKey(dl) || len(cl.Args) != len(dl.Args) {
				continue
			}
			th2 := make(map[string]logic.Term, len(theta))
			for k, v := range theta {
				th2[k] = v
			}
			if !bruteBind(th2, cl.Args, dl.Args) {
				continue
			}
			m2 := make(map[int]bool, len(mapped)+1)
			for k := range mapped {
				m2[k] = true
			}
			m2[di] = true
			if rec(k+1, th2, m2) {
				return true
			}
		}
		return false
	}
	return rec(0, theta, make(map[int]bool))
}

// bruteBind extends theta with the bindings making cArgs map onto dArgs,
// failing on constant mismatches and inconsistent variable images.
func bruteBind(theta map[string]logic.Term, cArgs, dArgs []logic.Term) bool {
	for i, a := range cArgs {
		da := dArgs[i]
		if a.IsConst() {
			if da.IsVar() || da.Name != a.Name {
				return false
			}
			continue
		}
		if prev, ok := theta[a.Name]; ok {
			if prev != da {
				return false
			}
			continue
		}
		theta[a.Name] = da
	}
	return true
}

// bruteConstraintsOK checks c's restriction literals under theta against d's
// equality closure and similarity pairs; a constraint with an unbound side
// is satisfiable.
func bruteConstraintsOK(c logic.Clause, theta map[string]logic.Term, eqc eqClosure, sim map[[2]logic.Term]bool) bool {
	image := func(t logic.Term) (logic.Term, bool) {
		if t.IsConst() {
			return t, true
		}
		v, ok := theta[t.Name]
		return v, ok
	}
	for _, l := range c.Body {
		switch l.Kind {
		case logic.EqualityLit, logic.SimilarityLit, logic.InequalityLit:
			a, aok := image(l.Args[0])
			b, bok := image(l.Args[1])
			if !aok || !bok {
				continue
			}
			equal := a == b || eqc.same(a, b)
			switch l.Kind {
			case logic.EqualityLit:
				if !equal {
					return false
				}
			case logic.SimilarityLit:
				if !equal && !sim[[2]logic.Term{a, b}] {
					return false
				}
			case logic.InequalityLit:
				if equal {
					return false
				}
			}
		}
	}
	return true
}

// bruteClosureOK checks the second condition of Definition 4.4: every repair
// literal of d connected to a mapped relation literal of d is itself mapped.
func bruteClosureOK(d logic.Clause, mapped map[int]bool) bool {
	connected := d.RepairConnectivity()
	for di := range mapped {
		if !d.Body[di].IsRelation() {
			continue
		}
		for _, ri := range connected[di] {
			if !mapped[ri] {
				return false
			}
		}
	}
	return true
}

// checkAgainstReference is the differential battery: the optimized search,
// through a reusable CompiledCandidate probing a Prepared (the package's one
// θ-subsumption entry point) in its planned literal order, must agree with
// the brute-force reference on the pair (c, d), in both Definition 4.4 and
// plain modes. Plans are permutations, so any divergence is a planner or
// search bug.
func checkAgainstReference(t *testing.T, ch *Checker, c, d logic.Clause) {
	t.Helper()
	ctx := context.Background()
	prep := ch.Prepare(d)
	cc := CompileCandidate(c)
	for _, plain := range []bool{false, true} {
		want := bruteForceSubsumes(c, d, plain)
		if got, _, _ := cc.Probe(ctx, prep, plain); got != want {
			t.Fatalf("disagreement (plain=%v): brute=%v probe=%v\nc = %v\nd = %v",
				plain, want, got, c, d)
		}
	}
}

// fuzzChecker uses a node budget generous enough that the bounded search is
// exhaustive on fuzz-sized clauses, so disagreements are real bugs rather
// than budget exhaustion.
func fuzzChecker() *Checker { return New(Options{MaxNodes: 1 << 22}) }

// TestReferenceAgreesOnKnownCases sanity-checks the reference itself on the
// curated pairs used elsewhere in the package tests.
func TestReferenceAgreesOnKnownCases(t *testing.T) {
	ch := fuzzChecker()
	pairs := [][2]logic.Clause{
		{mdClause(), groundMDClause()},
		{groundMDClause(), groundMDClause()},
		{
			logic.NewClause(logic.Rel("p", logic.Var("x")), logic.Rel("q", logic.Var("x"), logic.Var("x"))),
			logic.NewClause(logic.Rel("p", logic.Const("a")), logic.Rel("q", logic.Const("a"), logic.Const("b"))),
		},
		{
			logic.NewClause(logic.Rel("highGrossing", logic.Var("x")), logic.Rel("movies", logic.Var("y"), logic.Var("t"), logic.Var("z"))),
			groundMDClause(),
		},
	}
	for _, p := range pairs {
		checkAgainstReference(t, ch, p[0], p[1])
	}
}

// TestPlannerAdversarialCases runs the differential battery on crafted
// planner-adversarial clause pairs: disconnected bodies (the frontier is
// empty mid-plan), repeated predicates (many literals share one image set),
// and all-equal image sizes (selectivity cannot discriminate, ties decide
// the whole plan).
func TestPlannerAdversarialCases(t *testing.T) {
	ch := fuzzChecker()
	x, y, z, w := logic.Var("x"), logic.Var("y"), logic.Var("z"), logic.Var("w")
	a, b, cst := logic.Const("a"), logic.Const("b"), logic.Const("c")
	cases := []struct {
		name string
		c, d logic.Clause
	}{
		{
			"disconnected body",
			logic.NewClause(logic.Rel("p", x), logic.Rel("q", x, y), logic.Rel("s", z, w), logic.Rel("r", w)),
			logic.NewClause(logic.Rel("p", a),
				logic.Rel("q", a, b), logic.Rel("q", a, cst),
				logic.Rel("s", b, cst), logic.Rel("s", cst, a), logic.Rel("r", a)),
		},
		{
			"repeated predicates",
			logic.NewClause(logic.Rel("p", x), logic.Rel("q", x, y), logic.Rel("q", y, z), logic.Rel("q", z, x)),
			logic.NewClause(logic.Rel("p", a),
				logic.Rel("q", a, b), logic.Rel("q", b, cst), logic.Rel("q", cst, a), logic.Rel("q", b, a)),
		},
		{
			"all-equal image sizes",
			logic.NewClause(logic.Rel("p", x), logic.Rel("q", x, y), logic.Rel("s", y, z), logic.Rel("r", z)),
			logic.NewClause(logic.Rel("p", a),
				logic.Rel("q", a, b), logic.Rel("q", a, cst),
				logic.Rel("s", b, cst), logic.Rel("s", cst, b),
				logic.Rel("r", cst), logic.Rel("r", b)),
		},
		{
			"disconnected and unsatisfiable half",
			logic.NewClause(logic.Rel("p", x), logic.Rel("q", x, x), logic.Rel("s", z, z)),
			logic.NewClause(logic.Rel("p", a),
				logic.Rel("q", a, a), logic.Rel("s", b, cst), logic.Rel("s", cst, b)),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, ch, tc.c, tc.d)
		})
	}
}

// TestClosureSharedImageBacktracking runs the differential battery where
// two literals of c map to the same d literal and the search then
// backtracks the deeper one onto another image: the d literal stays mapped
// through the shallower one, so the closure must still see it. In the first
// case the shared image is a relation literal, whose connected repair
// literal c cannot map: every mapping fails Definition 4.4. In the second it
// is a repair literal, which must still count as mapped for the relation
// literal it is connected to: the mapping holds.
func TestClosureSharedImageBacktracking(t *testing.T) {
	ch := fuzzChecker()
	x, y, z, u, u2 := logic.Var("x"), logic.Var("y"), logic.Var("z"), logic.Var("u"), logic.Var("u2")
	a, b, cst, e := logic.Const("a"), logic.Const("b"), logic.Const("c"), logic.Const("e")
	w, w2 := logic.Var("w"), logic.Var("w2")
	rep := func(target, repl logic.Term) logic.Literal {
		cond := logic.Condition{Op: logic.CondSim, L: target, R: repl}
		return logic.RepairInGroup("md1", "md1#0", logic.OriginMD, target, repl, cond)
	}
	cases := []struct {
		name string
		c, d logic.Clause
		want bool // Definition 4.4 answer; plain mode always subsumes
	}{
		{
			// Plan: r(x,b), r(x,z), s(z). r(x,z) first maps to r(a,b) beside
			// r(x,b), s(b) has no image, so it moves to r(a,c). r(a,b) is
			// still mapped, so rep(b,w) is required and unmapped.
			"shared relation literal",
			logic.NewClause(logic.Rel("p", x), logic.Rel("r", x, b), logic.Rel("r", x, z), logic.Rel("s", z)),
			logic.NewClause(logic.Rel("p", a),
				logic.Rel("r", a, b), logic.Rel("r", a, cst), logic.Rel("s", cst), logic.Rel("s", e), rep(b, w)),
			false,
		},
		{
			// Plan: r(x,y), rep(y,u), rep(z,u2), s(z). rep(z,u2) first maps
			// to rep(b,w) beside rep(y,u), s(b) has no image, so it moves to
			// rep(c,w2). rep(b,w) is still mapped, which r(a,b) requires.
			"shared repair literal",
			logic.NewClause(logic.Rel("p", x), logic.Rel("r", x, y), rep(y, u), rep(z, u2), logic.Rel("s", z)),
			logic.NewClause(logic.Rel("p", a),
				logic.Rel("r", a, b), rep(b, w), rep(cst, w2), logic.Rel("s", cst), logic.Rel("s", e)),
			true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, ch, tc.c, tc.d)
			if got := bruteForceSubsumes(tc.c, tc.d, false); got != tc.want {
				t.Fatalf("Definition 4.4 answer = %v, want %v", got, tc.want)
			}
			if !bruteForceSubsumes(tc.c, tc.d, true) {
				t.Fatal("plain θ-subsumption should ignore the closure requirement")
			}
		})
	}
}

// --- fuzzing ----------------------------------------------------------------

// byteSrc deals decision bytes to the clause generator; exhausted input
// yields zeros so every prefix is a valid generation script.
type byteSrc struct {
	data []byte
	i    int
}

func (s *byteSrc) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

var (
	fuzzPreds = []struct {
		name  string
		arity int
	}{{"q", 2}, {"r", 1}, {"s", 2}, {"q", 2}}
	fuzzVars   = []string{"x", "y", "z", "w"}
	fuzzConsts = []string{"a", "b", "c"}
)

func fuzzTerm(s *byteSrc, groundBias bool) logic.Term {
	b := s.next()
	if groundBias {
		if b%4 != 0 {
			return logic.Const(fuzzConsts[int(b/4)%len(fuzzConsts)])
		}
		return logic.Var(fuzzVars[int(b/4)%len(fuzzVars)])
	}
	if b%2 == 0 {
		return logic.Var(fuzzVars[int(b/2)%len(fuzzVars)])
	}
	return logic.Const(fuzzConsts[int(b/2)%len(fuzzConsts)])
}

// fuzzClause generates a small clause: head p/1, up to maxLits relation
// literals, up to two restriction literals, and optionally an MD repair
// pair. groundBias skews terms toward constants (the subsumed side).
func fuzzClause(s *byteSrc, maxLits int, groundBias bool) logic.Clause {
	head := logic.Rel("p", fuzzTerm(s, groundBias))
	var body []logic.Literal
	n := 1 + int(s.next())%maxLits
	for i := 0; i < n; i++ {
		p := fuzzPreds[int(s.next())%len(fuzzPreds)]
		args := make([]logic.Term, p.arity)
		for j := range args {
			args[j] = fuzzTerm(s, groundBias)
		}
		body = append(body, logic.Rel(p.name, args...))
	}
	for i := int(s.next()) % 3; i > 0; i-- {
		a, b := fuzzTerm(s, groundBias), fuzzTerm(s, groundBias)
		switch s.next() % 3 {
		case 0:
			body = append(body, logic.Eq(a, b))
		case 1:
			body = append(body, logic.Sim(a, b))
		default:
			body = append(body, logic.Neq(a, b))
		}
	}
	if s.next()%3 == 0 {
		x, v := fuzzTerm(s, groundBias), logic.Var("v"+fuzzVars[int(s.next())%len(fuzzVars)])
		cond := logic.Condition{Op: logic.CondSim, L: x, R: v}
		body = append(body, logic.RepairInGroup("md1", "md1#0", logic.OriginMD, x, v, cond))
	}
	return logic.NewClause(head, body...)
}

// FuzzSubsumes cross-checks the optimized θ-subsumption search (a
// CompiledCandidate probing a Prepared in planned order, plain and
// Definition 4.4 modes) against the brute-force reference on generated
// clause pairs.
func FuzzSubsumes(f *testing.F) {
	f.Add([]byte("dlearn"))
	f.Add([]byte("subsumption-fuzz-seed"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{255, 254, 3, 9, 27, 81, 243, 7, 21, 63, 189, 55})
	// Planner-adversarial scripts: disconnected bodies (terms drawn from
	// non-overlapping variable halves), repeated predicates (the generator's
	// predicate table already doubles q/2; bytes below pin long q-runs), and
	// all-equal image sizes (uniform repetition on the ground side).
	f.Add([]byte{7, 0, 0, 2, 4, 0, 6, 0, 0, 0, 3, 1, 1, 5, 1, 1, 7, 3, 3, 9, 3, 3})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{11, 3, 2, 4, 3, 6, 8, 3, 10, 12, 3, 14, 16, 3, 18, 20, 3, 22, 24, 3, 26})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSrc{data: data}
		c := fuzzClause(s, 3, false)
		d := fuzzClause(s, 5, true)
		checkAgainstReference(t, fuzzChecker(), c, d)
	})
}
