package subsumption

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dlearn/internal/logic"
)

// plit builds a handcrafted per-probe literal for planner unit tests: varIDs
// are the literal's variables, images its candidate-image size.
func plit(images int, varIDs ...int) compiledLit {
	cl := compiledLit{candidates: make([]int, images)}
	for _, v := range varIDs {
		cl.args = append(cl.args, compiledTerm{varID: v})
	}
	return cl
}

// maxVar returns one past the largest variable id mentioned.
func maxVar(lits []compiledLit, seed []int) int {
	n := 0
	for _, cl := range lits {
		for _, a := range cl.args {
			if a.varID >= n {
				n = a.varID + 1
			}
		}
	}
	for _, v := range seed {
		if v >= n {
			n = v + 1
		}
	}
	return n
}

// assertPermutation fails unless plan is a permutation of 0..n-1.
func assertPermutation(t *testing.T, plan []int, n int) {
	t.Helper()
	if len(plan) != n {
		t.Fatalf("plan has %d entries, want %d: %v", len(plan), n, plan)
	}
	seen := make([]bool, n)
	for _, i := range plan {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("plan is not a permutation of 0..%d: %v", n-1, plan)
		}
		seen[i] = true
	}
}

func TestPlanOrderIsPermutation(t *testing.T) {
	cases := [][]compiledLit{
		{plit(3, 0)},
		{plit(3, 0, 1), plit(1, 1, 2), plit(7, 2)},
		// Disconnected components.
		{plit(4, 0), plit(4, 1), plit(4, 2), plit(2, 3)},
		// Repeated shapes, all-equal image sizes.
		{plit(5, 0, 1), plit(5, 1, 2), plit(5, 2, 0), plit(5, 3, 4)},
		// Ground literals only (no variables).
		{plit(2), plit(9), plit(1)},
	}
	for i, lits := range cases {
		for _, seed := range [][]int{nil, {0}} {
			plan := planOrder(lits, maxVar(lits, seed), seed)
			assertPermutation(t, plan, len(lits))
			_ = i
		}
	}
}

// TestPlanOrderSelectivityFirst pins the greedy estimate: among literals on
// the connected frontier, the smallest candidate image is searched first.
func TestPlanOrderSelectivityFirst(t *testing.T) {
	// All connected to the seed variable 0; images 5, 2, 9.
	lits := []compiledLit{plit(5, 0, 1), plit(2, 0, 2), plit(9, 0, 3)}
	plan := planOrder(lits, maxVar(lits, []int{0}), []int{0})
	if want := []int{1, 0, 2}; !reflect.DeepEqual(plan, want) {
		t.Fatalf("plan = %v, want %v (smallest image first)", plan, want)
	}
}

// TestPlanOrderConnectedPrefix pins the frontier rule: when the clause graph
// is connected to the seed variables, every prefix of the plan stays
// connected — a planned literal always shares a variable with the covered
// set (or is a ≤1-image filter, which is always eligible).
func TestPlanOrderConnectedPrefix(t *testing.T) {
	// A chain 0-1-2-3-4 deliberately listed so clause order is NOT connected,
	// with image sizes rewarding a selectivity-only planner for jumping to
	// the disconnected tail.
	lits := []compiledLit{
		plit(9, 0, 1),
		plit(2, 3, 4), // smallest image, but disconnected until 3 or 4 is covered
		plit(5, 1, 2),
		plit(4, 2, 3),
	}
	plan := planOrder(lits, maxVar(lits, []int{0}), []int{0})
	assertPermutation(t, plan, len(lits))
	covered := map[int]bool{0: true}
	for step, i := range plan {
		cl := lits[i]
		if len(cl.candidates) > 1 {
			conn := false
			for _, a := range cl.args {
				if covered[a.varID] {
					conn = true
				}
			}
			if !conn {
				t.Fatalf("step %d of plan %v searches literal %d before any of its variables is covered", step, plan, i)
			}
		}
		for _, a := range cl.args {
			covered[a.varID] = true
		}
	}
}

// TestPlanOrderSingleImageFirst pins the filter exception: a literal with at
// most one candidate image has branching factor ≤ 1, so it runs early even
// when disconnected.
func TestPlanOrderSingleImageFirst(t *testing.T) {
	lits := []compiledLit{plit(5, 0, 1), plit(1, 2, 3), plit(3, 0)}
	plan := planOrder(lits, maxVar(lits, []int{0}), []int{0})
	if plan[0] != 1 {
		t.Fatalf("plan = %v: the single-image literal must be searched first", plan)
	}
}

func TestPlanOrderDeterministic(t *testing.T) {
	lits := []compiledLit{
		plit(5, 0, 1), plit(5, 1, 2), plit(5, 2, 0), plit(5, 3, 4), plit(2, 4),
	}
	n := maxVar(lits, []int{0})
	want := planOrder(lits, n, []int{0})
	assertPermutation(t, want, len(lits))
	for i := 0; i < 16; i++ {
		if got := planOrder(lits, n, []int{0}); !reflect.DeepEqual(got, want) {
			t.Fatalf("planOrder is not deterministic: %v vs %v", got, want)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := planOrder(lits, n, []int{0}); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent planOrder diverged: %v vs %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProbeStatsModes pins the ProbeStats flags: planned on a searched
// probe, not planned on an infeasible bail, exhausted only when a failed
// search hit the node budget.
func TestProbeStatsModes(t *testing.T) {
	ctx := context.Background()
	c := logic.NewClause(logic.Rel("p", logic.Var("x")), logic.Rel("q", logic.Var("x"), logic.Var("y")))
	d := logic.NewClause(logic.Rel("p", logic.Const("a")), logic.Rel("q", logic.Const("a"), logic.Const("b")))
	prep := New(Options{}).Prepare(d)
	cc := CompileCandidate(c)

	if ok, _, st := cc.Probe(ctx, prep, false); !ok || !st.Planned || st.Exhausted || st.Nodes == 0 {
		t.Fatalf("default probe stats: ok=%v %+v", ok, st)
	}

	// Infeasible: a candidate literal with no image bails before planning.
	cMiss := logic.NewClause(logic.Rel("p", logic.Var("x")), logic.Rel("nope", logic.Var("x")))
	if ok, _, st := CompileCandidate(cMiss).Probe(ctx, prep, false); ok || st.Planned || st.Exhausted || st.Nodes != 0 {
		t.Fatalf("infeasible probe stats: ok=%v %+v", ok, st)
	}

	// Exhausted: a one-node budget cannot finish any real search.
	tiny := New(Options{MaxNodes: 1}).Prepare(d)
	if ok, _, st := cc.Probe(ctx, tiny, false); ok || !st.Exhausted {
		t.Fatalf("budget-capped probe stats: ok=%v %+v", ok, st)
	}

	// A search that succeeds on exactly its last budgeted node found its
	// match, so it is not exhausted.
	exact := New(Options{MaxNodes: 2}).Prepare(d)
	if ok, _, st := cc.Probe(ctx, exact, false); !ok || st.Nodes != 2 || st.Exhausted {
		t.Fatalf("probe succeeding on its last budgeted node: ok=%v %+v", ok, st)
	}
}
