package subsumption

import (
	"context"
	"fmt"
	"testing"

	"dlearn/internal/logic"
)

// bipartiteProblem builds a Definition 4.4 search whose node count the d
// side controls. c is a path t(X0) :- edge(X0,X1), ..., edge(Xn-1,Xn) with no
// repair literal. d is the complete bipartite graph between a0..a3 and
// b0..b3 (edges in both directions) with head t(a0), plus one MD repair
// literal on each b in blocked. A mapped edge touching a blocked b would
// need its repair literal mapped too, which c cannot do, so every odd
// variable of c must map to an unblocked b. The search tries b0..b3 in
// order, so blocking b0..b2 makes it exhaust three whole subtrees of leaves
// that fail the closure check before it finds the answer under b3, while
// blocking b1..b3 lets the first leaf succeed. Either way c subsumes d, and
// the two d sides have the same literals per predicate.
func bipartiteProblem(pathLen int, blocked ...int) (logic.Clause, logic.Clause) {
	x := func(i int) logic.Term { return logic.Var(fmt.Sprintf("X%d", i)) }
	var cBody []logic.Literal
	for i := 0; i < pathLen; i++ {
		cBody = append(cBody, logic.Rel("edge", x(i), x(i+1)))
	}
	c := logic.NewClause(logic.Rel("t", x(0)), cBody...)

	a := func(i int) logic.Term { return logic.Const(fmt.Sprintf("a%d", i)) }
	b := func(i int) logic.Term { return logic.Const(fmt.Sprintf("b%d", i)) }
	var dBody []logic.Literal
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			dBody = append(dBody, logic.Rel("edge", a(i), b(j)), logic.Rel("edge", b(j), a(i)))
		}
	}
	for _, j := range blocked {
		w := logic.Var(fmt.Sprintf("w%d", j))
		cond := logic.Condition{Op: logic.CondSim, L: b(j), R: w}
		dBody = append(dBody, logic.RepairInGroup("md1", "md1#0", logic.OriginMD, b(j), w, cond))
	}
	return c, logic.NewClause(logic.Rel("t", a(0)), dBody...)
}

// TestBipartiteProblemAgreesWithReference pins the answers and node counts
// the allocation tests and BenchmarkProbeBacktracking rely on.
func TestBipartiteProblemAgreesWithReference(t *testing.T) {
	ch := fuzzChecker()
	for _, tc := range []struct {
		pathLen  int
		blocked  []int
		minNodes int
		maxNodes int
	}{
		{4, []int{0, 1, 2}, 200, 1000},
		{4, []int{1, 2, 3}, 1, 10},
		{6, []int{0, 1, 2}, 1000, 100000},
		{6, []int{1, 2, 3}, 1, 10},
	} {
		c, d := bipartiteProblem(tc.pathLen, tc.blocked...)
		checkAgainstReference(t, ch, c, d)
		ok, st := CompileCandidate(c).Probe(context.Background(), ch.Prepare(d), false)
		if !ok || st.Nodes < tc.minNodes || st.Nodes > tc.maxNodes {
			t.Errorf("path %d blocked %v: ok=%v nodes=%d, want true in [%d, %d]",
				tc.pathLen, tc.blocked, ok, st.Nodes, tc.minNodes, tc.maxNodes)
		}
	}
}

// TestInfeasibleProbeAllocatesNothing: a probe in which some literal of c
// has no image in d is rejected before any search state is built.
func TestInfeasibleProbeAllocatesNothing(t *testing.T) {
	c, d := bipartiteProblem(3, 0)
	// The first literals have images; the last cannot map anywhere.
	c.Body = append(c.Body, logic.Rel("edge", logic.Var("X3"), logic.Const("nowhere")))
	prep := New(Options{}).Prepare(d)
	cc := CompileCandidate(c)
	ctx := context.Background()
	if ok, st := cc.Probe(ctx, prep, false); ok || st != (ProbeStats{}) {
		t.Fatalf("infeasible probe: ok=%v %+v", ok, st)
	}
	if n := testing.AllocsPerRun(100, func() { cc.Probe(ctx, prep, false) }); n != 0 {
		t.Errorf("infeasible probe allocates %v objects, want 0", n)
	}
}

// TestProbeAllocsIndependentOfNodes: the search state is allocated once per
// probe, so a probe that backtracks through thousands of nodes allocates
// exactly as much as one that decides in a few.
func TestProbeAllocsIndependentOfNodes(t *testing.T) {
	ch := New(Options{})
	c, deepD := bipartiteProblem(6, 0, 1, 2)
	_, shallowD := bipartiteProblem(6, 1, 2, 3)
	cc := CompileCandidate(c)
	deep, shallow := ch.Prepare(deepD), ch.Prepare(shallowD)
	ctx := context.Background()

	okDeep, stDeep := cc.Probe(ctx, deep, false)
	okShallow, stShallow := cc.Probe(ctx, shallow, false)
	if !okDeep || !okShallow || stDeep.Nodes < 1000 || stShallow.Nodes > 10 {
		t.Fatalf("deep probe ok=%v %+v, shallow probe ok=%v %+v; want both true, ≥1000 and ≤10 nodes",
			okDeep, stDeep, okShallow, stShallow)
	}
	deepAllocs := testing.AllocsPerRun(20, func() { cc.Probe(ctx, deep, false) })
	shallowAllocs := testing.AllocsPerRun(20, func() { cc.Probe(ctx, shallow, false) })
	if deepAllocs != shallowAllocs {
		t.Errorf("probe of %d nodes allocates %v objects, probe of %d nodes %v: allocations grow with the search",
			stDeep.Nodes, deepAllocs, stShallow.Nodes, shallowAllocs)
	}
}

// BenchmarkProbeBacktracking measures one Definition 4.4 probe that
// backtracks through a few hundred nodes, most of its leaves failing the
// repair-literal closure check. It fails on a wrong answer.
func BenchmarkProbeBacktracking(b *testing.B) {
	c, d := bipartiteProblem(4, 0, 1, 2)
	prep := New(Options{}).Prepare(d)
	cc := CompileCandidate(c)
	ctx := context.Background()
	b.ReportAllocs()
	var nodes int
	for b.Loop() {
		ok, st := cc.Probe(ctx, prep, false)
		if !ok {
			b.Fatal("the path must subsume the bipartite graph through its unblocked vertex")
		}
		nodes = st.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes/op")
}
