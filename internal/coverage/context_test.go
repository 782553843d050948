package coverage

import (
	"context"
	"testing"

	"dlearn/internal/logic"
)

// simpleGround builds a small ground bottom clause for the worker-pool
// cancellation tests.
func simpleGround(genre string) logic.Clause {
	id := logic.Const("m1")
	title := logic.Const("Superbad")
	return logic.NewClause(
		logic.Rel("highGrossing", title),
		logic.Rel("movies", id, title),
		logic.Rel("mov2genres", id, logic.Const(genre)),
	)
}

func simpleClause() logic.Clause {
	x, y := logic.Var("x"), logic.Var("y")
	return logic.NewClause(
		logic.Rel("highGrossing", x),
		logic.Rel("movies", y, x),
		logic.Rel("mov2genres", y, logic.Const("comedy")),
	)
}

// mustExamples prepares examples with a live context, failing the test on
// the (impossible) preparation error.
func mustExamples(tb testing.TB, e *Evaluator, grounds []logic.Clause) []*Example {
	tb.Helper()
	exs, err := e.NewExamples(context.Background(), grounds)
	if err != nil {
		tb.Fatalf("NewExamples: %v", err)
	}
	return exs
}

func TestWorkerPoolHonorsCancellation(t *testing.T) {
	e := NewEvaluator(Options{Threads: 4})
	grounds := make([]logic.Clause, 32)
	for i := range grounds {
		grounds[i] = simpleGround("comedy")
	}
	exs := mustExamples(t, e, grounds)

	if got := e.CoverageBits(context.Background(), simpleClause(), exs).Count(); got != len(exs) {
		t.Fatalf("uncancelled count = %d, want %d", got, len(exs))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A cancelled batch must drain without scoring: every worker skips its
	// items, so nothing is counted.
	if got := indices(e.CoverageBits(ctx, simpleClause(), exs)); len(got) != 0 {
		t.Errorf("cancelled covered-set = %v, want empty", got)
	}
	if got := e.CountNegativeExamples(ctx, simpleClause(), exs); got != 0 {
		t.Errorf("cancelled negative count = %d, want 0", got)
	}
}

// TestNewExamplesCancelledReturnsError is the regression test for the
// silently-dropped cancellation error: a batch abandoned mid-preparation
// must report ctx.Err() instead of handing back stub examples as if the
// preparation had succeeded. The stub-filled batch is still returned with
// no nil entries for callers that inspect it despite the error.
func TestNewExamplesCancelledReturnsError(t *testing.T) {
	e := NewEvaluator(Options{Threads: 4})
	grounds := make([]logic.Clause, 16)
	for i := range grounds {
		grounds[i] = simpleGround("drama")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exs, err := e.NewExamples(ctx, grounds)
	if err == nil {
		t.Fatal("NewExamples on a cancelled context returned nil error")
	}
	if err != context.Canceled {
		t.Fatalf("NewExamples error = %v, want context.Canceled", err)
	}
	if len(exs) != len(grounds) {
		t.Fatalf("NewExamples returned %d entries for %d grounds", len(exs), len(grounds))
	}
	for i, ex := range exs {
		if ex == nil {
			t.Fatalf("entry %d is nil after cancellation", i)
		}
	}
}

// TestNewExamplesUncancelledNoError pins the happy path: a live context
// prepares every example and reports no error.
func TestNewExamplesUncancelledNoError(t *testing.T) {
	e := NewEvaluator(Options{Threads: 2})
	grounds := []logic.Clause{simpleGround("comedy"), simpleGround("drama")}
	exs, err := e.NewExamples(context.Background(), grounds)
	if err != nil {
		t.Fatalf("NewExamples: %v", err)
	}
	if len(exs) != len(grounds) {
		t.Fatalf("got %d examples, want %d", len(exs), len(grounds))
	}
}
