package subsumption

import (
	"context"
	"testing"

	"dlearn/internal/logic"
)

// bigSubsumptionProblem builds a subsumption instance whose search explores
// far more than one ctx poll interval of nodes: n same-predicate literals
// over shared variables against a d-side designed to force backtracking.
func bigSubsumptionProblem(n int) (logic.Clause, logic.Clause) {
	var cBody, dBody []logic.Literal
	vars := make([]logic.Term, n+1)
	for i := range vars {
		vars[i] = logic.Var(string(rune('A'+i%26)) + string(rune('0'+i/26)))
	}
	for i := 0; i < n; i++ {
		cBody = append(cBody, logic.Rel("edge", vars[i], vars[i+1]))
	}
	// d: a dense graph of constants so every c literal has many candidates.
	consts := make([]logic.Term, 8)
	for i := range consts {
		consts[i] = logic.Const(string(rune('a' + i)))
	}
	for _, x := range consts {
		for _, y := range consts {
			if x != y {
				dBody = append(dBody, logic.Rel("edge", x, y))
			}
		}
	}
	c := logic.NewClause(logic.Rel("t", vars[0]), cBody...)
	d := logic.NewClause(logic.Rel("t", consts[0]), dBody...)
	return c, d
}

func TestSubsumesContextCancelled(t *testing.T) {
	c, d := bigSubsumptionProblem(12)
	ch := New(Options{MaxNodes: 10_000_000})

	// Sanity: the uncancelled search finds the mapping.
	if ok, _ := subsumes(ch, c, d); !ok {
		t.Fatal("uncancelled search should subsume")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ok, _ := probeClauses(ctx, ch, c, d, false); ok {
		t.Error("cancelled search must conservatively report no subsumption")
	}
	if ok, _ := probeClauses(ctx, ch, c, d, true); ok {
		t.Error("cancelled plain search must conservatively report no subsumption")
	}
}

// TestPreparedSubsumesContextCancelled checks cancellation on a Prepared
// shared across probes: a cancelled probe reports no subsumption and leaves
// the Prepared answering later uncancelled probes correctly.
func TestPreparedSubsumesContextCancelled(t *testing.T) {
	c, d := bigSubsumptionProblem(12)
	ch := New(Options{MaxNodes: 10_000_000})
	prep := ch.Prepare(d)
	cc := CompileCandidate(c)
	if ok, _ := cc.Probe(context.Background(), prep, false); !ok {
		t.Fatal("uncancelled prepared search should subsume")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ok, st := cc.Probe(ctx, prep, false); ok || !st.Exhausted {
		t.Errorf("cancelled prepared search must conservatively report no subsumption (ok=%v, exhausted=%v)", ok, st.Exhausted)
	}
	if ok, _ := cc.Probe(context.Background(), prep, false); !ok {
		t.Error("a cancelled probe must not change later answers on the same Prepared")
	}
}
