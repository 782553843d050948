package subsumption

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dlearn/internal/logic"
)

// TestIndexPathCases runs the differential battery, which probes every case
// once scanning and once through the term index, on the shapes where looking
// an image up by one bound argument could go wrong.
func TestIndexPathCases(t *testing.T) {
	ch := fuzzChecker()
	x, y, z, u := logic.Var("x"), logic.Var("y"), logic.Var("z"), logic.Var("u")
	a, b, c, k := logic.Const("a"), logic.Const("b"), logic.Const("c"), logic.Const("k")
	w1, w2 := logic.Var("w1"), logic.Var("w2")
	p := func(args ...logic.Term) logic.Literal { return logic.Rel("p", args...) }
	q := func(args ...logic.Term) logic.Literal { return logic.Rel("q", args...) }
	r := func(args ...logic.Term) logic.Literal { return logic.Rel("r", args...) }
	s := func(args ...logic.Term) logic.Literal { return logic.Rel("s", args...) }
	rep := func(origin logic.RepairOrigin, target, repl logic.Term) logic.Literal {
		cond := logic.Condition{Op: logic.CondSim, L: target, R: repl}
		return logic.RepairInGroup("dep", "dep#0", origin, target, repl, cond)
	}
	cases := []struct {
		name string
		c, d logic.Clause
		want bool // Definition 4.4 answer
	}{
		{
			"repeated variable in one literal",
			logic.NewClause(p(x), r(x, y), q(y, y)),
			logic.NewClause(p(a), r(a, b), r(a, c), q(b, c), q(c, b), q(c, c)),
			true,
		},
		{
			"repeated variable in one literal, no image",
			logic.NewClause(p(x), r(x, y), q(y, y)),
			logic.NewClause(p(a), r(a, b), r(a, c), q(b, c), q(c, b)),
			false,
		},
		{
			"repeated head variable",
			logic.NewClause(p(x, x), q(x, y), s(y)),
			logic.NewClause(p(a, a), q(b, a), q(a, c), q(a, b), s(b)),
			true,
		},
		{
			"distinct head variables bound to one term",
			logic.NewClause(p(x, y), q(x, z), q(y, z), s(z)),
			logic.NewClause(p(a, a), q(a, b), q(a, c), s(c)),
			true,
		},
		{
			"constant before the bound position",
			logic.NewClause(p(x), q(k, x), q(x, y), s(y)),
			logic.NewClause(p(a), q(a, k), q(k, a), q(a, b), q(a, c), s(c)),
			true,
		},
		{
			"variable and constant of one name at the bound position",
			logic.NewClause(p(x), q(x, y), s(y)),
			logic.NewClause(p(a), q(a, logic.Var("b")), q(a, b), s(b)),
			true,
		},
		{
			"bound term in several literals and positions",
			logic.NewClause(p(x), q(y, x), s(x, y), r(y, z), s(z, x)),
			logic.NewClause(p(a), q(a, a), q(b, a), s(a, a), s(a, b), s(b, a),
				r(a, b), r(b, a), r(b, c), s(c, a), q(a, c)),
			true,
		},
		{
			"MD and CFD repair literals sharing a predicate name",
			logic.NewClause(p(x), r(x, y), rep(logic.OriginCFD, y, u), rep(logic.OriginMD, y, z)),
			logic.NewClause(p(a), r(a, b), rep(logic.OriginMD, b, w1), rep(logic.OriginCFD, b, w2)),
			true,
		},
		{
			"MD repair literal where only a CFD one shares the bound term",
			logic.NewClause(p(x), r(x, y), rep(logic.OriginMD, y, u)),
			logic.NewClause(p(a), r(a, b), rep(logic.OriginCFD, b, w2), rep(logic.OriginMD, c, w1)),
			false,
		},
		{
			"one name, several arities",
			logic.NewClause(p(x), q(x, y, z), q(z), q(y, z)),
			logic.NewClause(p(a), q(a, b), q(b), q(a, b, c), q(c), q(a, c, b), q(c, b)),
			true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, ch, tc.c, tc.d)
			if got := bruteForceSubsumes(tc.c, tc.d, false); got != tc.want {
				t.Fatalf("Definition 4.4 answer = %v, want %v", got, tc.want)
			}
		})
	}
}

// wideLiteral returns pred(first, v1, ..., v(n-1)), with vi variables named
// prefix+i.
func wideLiteral(pred string, first logic.Term, n int, prefix string, vars bool) logic.Literal {
	args := []logic.Term{first}
	for i := 1; i < n; i++ {
		if vars {
			args = append(args, logic.Var(fmt.Sprintf("%s%d", prefix, i)))
		} else {
			args = append(args, logic.Const(fmt.Sprintf("%s%d", prefix, i)))
		}
	}
	return logic.Rel(pred, args...)
}

// TestPackingLimitFallsBackToScan: a literal with more arguments than a
// packed slot can address keeps the scan. A candidate with one is never
// probed through the index; a prepared clause with one leaves it out of its
// index, which only candidates that scan could map onto it.
func TestPackingLimitFallsBackToScan(t *testing.T) {
	ch := fuzzChecker()
	x, y := logic.Var("x"), logic.Var("y")
	a, b := logic.Const("a"), logic.Const("b")
	n := maxPackedArity + 1
	d := logic.NewClause(logic.Rel("p", a),
		wideLiteral("w", b, n, "c", false), wideLiteral("w", a, n, "c", false),
		logic.Rel("q", a, b), logic.Rel("q", b, a))

	wide := logic.NewClause(logic.Rel("p", x), logic.Rel("q", y, x), wideLiteral("w", y, n, "v", true))
	cc := CompileCandidate(wide)
	if cc.packable {
		t.Fatalf("a candidate literal of %d arguments must not be packable", n)
	}
	checkAgainstReference(t, ch, wide, d)

	narrow := logic.NewClause(logic.Rel("p", x), logic.Rel("q", x, y), logic.Rel("q", y, x))
	if !CompileCandidate(narrow).packable {
		t.Fatal("a candidate of binary literals must be packable")
	}
	checkAgainstReference(t, ch, narrow, d)
	x2 := withIndex(ch, d).idx.Load()
	if x2 == nil {
		t.Fatal("a prepared clause with a wide literal must still be indexed")
	}
	if x2.base[1] != x2.base[3] {
		t.Errorf("the two wide body literals got %d term IDs, want none", x2.base[3]-x2.base[1])
	}
}

// productsProblem builds a products-like join over n products (n a multiple
// of 8): product v_i is in group g_(i%8) with external id x_i, the tag Toys
// is on group g7, and the products 8k..8k+6 share brand n_k while the
// group-7 ones have brand nt. The candidate asks for a product w sharing
// x's group (g0) whose brand a Toys product u also has. Only one extra Toys
// product, the last literal of the body, has a group-0 brand, the brand of
// the last group-0 product. So the search tries every group-0 product w and
// every product u of its brand before it succeeds, and at most literals a
// scan tries the whole relation where the term index tries one image.
func productsProblem(n int) (logic.Clause, logic.Clause) {
	v := func(i int) logic.Term { return logic.Const(fmt.Sprintf("v%d", i)) }
	g := func(i int) logic.Term { return logic.Const(fmt.Sprintf("g%d", i)) }
	brand := func(i int) logic.Term {
		if i%8 == 7 {
			return logic.Const("nt")
		}
		return logic.Const(fmt.Sprintf("n%d", i/8))
	}
	var body []logic.Literal
	for i := 0; i < n; i++ {
		body = append(body,
			logic.Rel("ids", v(i), g(i%8), logic.Const(fmt.Sprintf("x%d", i))),
			logic.Rel("brand", v(i), brand(i)))
	}
	body = append(body, logic.Rel("tag", g(7), logic.Const("Toys")),
		logic.Rel("ids", v(n), g(7), logic.Const("xlast")), logic.Rel("brand", v(n), brand(n-8)))
	d := logic.NewClause(logic.Rel("t", logic.Const("x0")), body...)

	V := logic.Var
	c := logic.NewClause(logic.Rel("t", V("x")),
		logic.Rel("ids", V("v"), V("g"), V("x")),
		logic.Rel("ids", V("w"), V("g"), V("y")),
		logic.Rel("brand", V("w"), V("n")),
		logic.Rel("brand", V("u"), V("n")),
		logic.Rel("ids", V("u"), V("h"), V("z")),
		logic.Rel("tag", V("h"), logic.Const("Toys")))
	return c, d
}

// TestProductsProblemAgreesWithReference pins the answer and node count
// BenchmarkProbeBoundArgument relies on.
func TestProductsProblemAgreesWithReference(t *testing.T) {
	c, d := productsProblem(64)
	checkAgainstReference(t, fuzzChecker(), c, d)
	if ok, st := CompileCandidate(c).Probe(t.Context(), New(Options{}).Prepare(d), false); !ok || st.Nodes != productsProblemNodes {
		t.Fatalf("ok=%v nodes=%d, want true and %d nodes", ok, st.Nodes, productsProblemNodes)
	}
}

// productsProblemNodes is the node count of the probe of productsProblem(64).
const productsProblemNodes = 77

// TestConcurrentProbesAcrossIndexBuild: goroutines probing one Prepared
// from before its term index exists until after it is built get the answers
// and node counts of a serial run that never builds it.
func TestConcurrentProbesAcrossIndexBuild(t *testing.T) {
	ch := New(Options{})
	c, d := productsProblem(64)
	var cands []*CompiledCandidate
	for drop := 0; drop <= len(c.Body); drop++ {
		ci := c.Clone()
		if drop < len(c.Body) {
			ci.Body = append(ci.Body[:drop:drop], ci.Body[drop+1:]...)
		}
		cands = append(cands, CompileCandidate(ci))
	}
	type result struct {
		ok bool
		st ProbeStats
	}
	serial := scanOnly(ch, d)
	want := make([]result, len(cands))
	for i, cc := range cands {
		want[i].ok, want[i].st = cc.Probe(t.Context(), serial, false)
	}

	shared := ch.Prepare(d)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := range cands {
					i := (j + w) % len(cands)
					ok, st := cands[i].Probe(context.Background(), shared, false)
					if ok != want[i].ok || st != want[i].st {
						t.Errorf("worker %d candidate %d: ok=%v %+v, serial ok=%v %+v", w, i, ok, st, want[i].ok, want[i].st)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if shared.idx.Load() == nil {
		t.Error("the probes never reached the index build point")
	}
}

// BenchmarkProbeBoundArgument measures one Definition 4.4 probe of a
// join-shaped candidate with fan-out over a products-like prepared clause
// (see productsProblem), where most literals are reached with a variable
// already bound. The prepared clause is built once, so after the first probe
// every probe walks its term index. It fails on a wrong answer or on a node
// count other than the recorded one: the index must not change the search.
func BenchmarkProbeBoundArgument(b *testing.B) {
	c, d := productsProblem(64)
	prep := New(Options{}).Prepare(d)
	cc := CompileCandidate(c)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		ok, st := cc.Probe(ctx, prep, false)
		if !ok || st.Nodes != productsProblemNodes {
			b.Fatalf("ok=%v nodes=%d, want true and %d nodes", ok, st.Nodes, productsProblemNodes)
		}
	}
	b.ReportMetric(productsProblemNodes, "nodes/op")
}
