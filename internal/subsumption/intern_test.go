package subsumption

import (
	"fmt"
	"sync"
	"testing"

	"dlearn/internal/logic"
)

// TestPredInternerConcurrent hammers the process-global predicate-key
// interner from many goroutines interning overlapping fresh keys, then checks
// every goroutine observed the same ID for the same key. Run under -race this
// is the regression test for the interner's double-checked locking.
func TestPredInternerConcurrent(t *testing.T) {
	const workers = 8
	const keys = 200
	results := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, keys)
			for k := 0; k < keys; k++ {
				// Rotate the visit order per worker so first-intern races happen.
				i := (k + w*17) % keys
				ids[i] = predKeys.id(predicateKey{pred: fmt.Sprintf("concurrent-intern-test/%d", i)})
			}
			results[w] = ids
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k := 0; k < keys; k++ {
			if results[w][k] != results[0][k] {
				t.Fatalf("worker %d interned key %d as %d, worker 0 as %d", w, k, results[w][k], results[0][k])
			}
		}
	}
	seen := make(map[uint32]bool, keys)
	for _, id := range results[0] {
		if seen[id] {
			t.Fatalf("duplicate ID %d assigned to distinct keys", id)
		}
		seen[id] = true
	}
}

// TestSharedInternerAcrossPrepareAndCompile prepares examples and compiles
// candidates concurrently — the covering loop's real access pattern to the
// shared interner — and checks probes against freshly prepared clauses keep
// answering correctly while new predicate keys are being interned.
func TestSharedInternerAcrossPrepareAndCompile(t *testing.T) {
	ch := New(Options{})
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				// Each worker mixes a shared relation with one unique to the
				// (worker, iteration) pair, so some predID calls hit the read
				// path and some race to extend the table.
				rel := fmt.Sprintf("intern_rel_%d_%d", w, i)
				d := logic.NewClause(
					logic.Rel("head", logic.Const("a")),
					logic.Rel("shared_rel", logic.Const("a"), logic.Const("b")),
					logic.Rel(rel, logic.Const("a")),
				)
				c := logic.NewClause(
					logic.Rel("head", logic.Var("x")),
					logic.Rel("shared_rel", logic.Var("x"), logic.Var("y")),
				)
				prep := ch.Prepare(d)
				cc := CompileCandidate(c)
				if ok, _ := cc.Probe(t.Context(), prep, false); !ok {
					t.Errorf("worker %d iter %d: candidate must subsume its prepared clause", w, i)
					return
				}
				miss := logic.NewClause(
					logic.Rel("head", logic.Var("x")),
					logic.Rel(fmt.Sprintf("intern_missing_%d_%d", w, i), logic.Var("x")),
				)
				if ok, _ := CompileCandidate(miss).Probe(t.Context(), prep, false); ok {
					t.Errorf("worker %d iter %d: literal absent from d must not subsume", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
