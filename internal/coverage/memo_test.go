package coverage

import (
	"context"
	"testing"

	"dlearn/internal/logic"
	"dlearn/internal/relation"
	"dlearn/internal/repair"
)

// memoEntries returns every probe in the evaluator's memo.
func memoEntries(e *Evaluator) []*probe {
	var out []*probe
	for i := range e.probes.shards {
		s := &e.probes.shards[i]
		s.mu.Lock()
		for _, p := range s.m {
			out = append(out, p)
		}
		s.mu.Unlock()
	}
	return out
}

// TestScanProbesBypassMemo pins that the generalization scan's one-shot
// tests store nothing, even for a clause that reaches the CFD leg (whose
// projection and expansion the probe resolves on the way).
func TestScanProbesBypassMemo(t *testing.T) {
	ctx := context.Background()
	b := builderFor(true)
	e := eval()
	_, c := cfdLegClause(t, b)
	g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	if !e.CoversPositiveExample(ctx, c, examples(e, g)[0]) {
		t.Fatal("the CFD-leg clause must cover Superbad")
	}
	if got := e.PlanSnapshot().Probes; got < 2 {
		t.Fatalf("%d probes: the test never left the direct probe", got)
	}
	if n := len(memoEntries(e)); n != 0 {
		t.Fatalf("a scan test left %d memo entries, want 0", n)
	}
}

// TestBatchPathsShareOneMemoEntry pins that every memoized coverage path
// resolves a clause to the same probe.
func TestBatchPathsShareOneMemoEntry(t *testing.T) {
	ctx := context.Background()
	b := builderFor(false)
	e := eval()
	var grounds []logic.Clause
	for _, title := range []string{"Superbad", "Zoolander", "Orphanage"} {
		g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", title))
		if err != nil {
			t.Fatal(err)
		}
		grounds = append(grounds, g)
	}
	exs := examples(e, grounds...)
	c := comedyClause()
	def := &logic.Definition{Target: "highGrossing"}
	def.Add(c, logic.ClauseStats{})

	var shared *probe
	for _, step := range []struct {
		name string
		run  func()
	}{
		{"CoverageBits", func() { e.CoverageBits(ctx, c, exs) }},
		{"CountNegativeExamples", func() { e.CountNegativeExamples(ctx, c, exs) }},
		{"ScoreCandidates", func() { e.ScoreCandidates(ctx, []logic.Clause{c}, exs[:2], exs[2:], -len(exs), 1) }},
		{"DefinitionCoversContext", func() { e.DefinitionCoversContext(ctx, def, grounds[0]) }},
	} {
		step.run()
		entries := memoEntries(e)
		if len(entries) != 1 {
			t.Fatalf("after %s the memo holds %d entries, want 1", step.name, len(entries))
		}
		if shared == nil {
			shared = entries[0]
		} else if entries[0] != shared {
			t.Fatalf("%s built a second probe for the same clause", step.name)
		}
	}
	if !shared.repResolved {
		t.Error("CountNegativeExamples did not resolve the memoized probe's repair expansion")
	}
}

// TestCancelledExpansionIsRecomputed pins that a CFD expansion cut short by
// cancellation is not kept in the memoized probe: the next call expands in
// full.
func TestCancelledExpansionIsRecomputed(t *testing.T) {
	b := builderFor(true)
	e := eval()
	_, c := cfdLegClause(t, b)
	p := e.probeFor(c)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	p.cfdCands(cancelled)
	if p.cfdResolved {
		t.Fatal("a cancelled expansion was kept")
	}

	opts := e.repOpts
	opts.Origin = logic.OriginCFD
	repaired, _ := repair.RepairedClausesContext(context.Background(), c, opts)
	want := len(repaired)
	if want == 0 {
		t.Fatal("the CFD-leg clause has no CFD expansion")
	}
	if got := len(e.probeFor(c).cfdCands(context.Background())); got != want || !p.cfdResolved {
		t.Fatalf("recomputed expansion has %d clauses (resolved=%v), want %d", got, p.cfdResolved, want)
	}
}

// TestMemoSeparatesVarFromConst pins the probe memo's key: t(x) <- r(x, g)
// with g a variable covers the ground clause t(a) <- r(a, h), and the same
// clause with the constant "g" does not. Both render as "r(x, g)", and the
// memo used to be keyed by that rendering, so once the first clause had been
// scored the second was handed its probe and covered the example too.
func TestMemoSeparatesVarFromConst(t *testing.T) {
	ctx := context.Background()
	x, a, h := logic.Var("x"), logic.Const("a"), logic.Const("h")
	ground := logic.NewClause(logic.Rel("t", a), logic.Rel("r", a, h))
	withVar := logic.NewClause(logic.Rel("t", x), logic.Rel("r", x, logic.Var("g")))
	withConst := logic.NewClause(logic.Rel("t", x), logic.Rel("r", x, logic.Const("g")))

	fresh := eval()
	if n := fresh.CoverageBits(ctx, withConst, examples(fresh, ground)).Count(); n != 0 {
		t.Fatalf("on a fresh evaluator %v covers %d examples, want 0", withConst, n)
	}
	e := eval()
	exs := examples(e, ground)
	if n := e.CoverageBits(ctx, withVar, exs).Count(); n != 1 {
		t.Fatalf("%v covers %d examples, want 1", withVar, n)
	}
	if n := e.CoverageBits(ctx, withConst, exs).Count(); n != 0 {
		t.Fatalf("after scoring %v, %v covers %d examples, want 0", withVar, withConst, n)
	}
	if n := len(memoEntries(e)); n != 2 {
		t.Fatalf("the memo holds %d probes, want one per clause", n)
	}
}
