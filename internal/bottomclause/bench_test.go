package bottomclause_test

import (
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/datagen"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// BenchmarkGroundBottomClause grounds the 300 labelled tuples of a seed-1,
// 600-movie instance with k_m = 2, the grounding classification does per
// tuple. A first, untimed pass records every clause; the benchmark fails if
// a timed pass grounds any tuple to a different clause.
func BenchmarkGroundBottomClause(b *testing.B) {
	cfg := datagen.DefaultMoviesConfig()
	cfg.Movies, cfg.Positives, cfg.Negatives, cfg.Seed = 600, 80, 220, 1
	ds, err := datagen.Movies(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Problem
	tuples := append(append([]relation.Tuple(nil), p.Pos...), p.Neg...)
	bc := bottomclause.DefaultConfig()
	bc.KM, bc.Seed = 2, 1
	// One builder serves every pass, as one model serves every tuple it
	// classifies: the untimed pass also builds its similarity indexes.
	builder := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, bc)
	clauses := make([]logic.Clause, len(tuples))
	ground := func() {
		for i, t := range tuples {
			c, err := builder.GroundBottomClause(t)
			if err != nil {
				b.Fatal(err)
			}
			clauses[i] = c
		}
	}
	ground()
	want := make([]string, len(clauses))
	for i, c := range clauses {
		want[i] = c.String()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ground()
		b.StopTimer()
		for j, c := range clauses {
			if got := c.String(); got != want[j] {
				b.Fatalf("tuple %d grounds to\n%s\nwant\n%s", j, got, want[j])
			}
		}
		b.StartTimer()
	}
}
