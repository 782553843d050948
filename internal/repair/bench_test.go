package repair_test

import (
	"context"
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/datagen"
	"dlearn/internal/logic"
	"dlearn/internal/repair"
)

// moviesGroundClauses builds the ground bottom clauses of the first
// positive examples of a generated IMDB+OMDB dataset (80 movies, seed 7,
// top-2 similarity matches): the clauses a learning run prepares, with MD
// pairs and CFD repair literals.
func moviesGroundClauses(b *testing.B, n int) []logic.Clause {
	b.Helper()
	cfg := datagen.DefaultMoviesConfig()
	cfg.Movies, cfg.Positives, cfg.Negatives, cfg.Seed = 80, 30, 50, 7
	ds, err := datagen.Movies(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Problem
	bc := bottomclause.DefaultConfig()
	bc.KM = 2
	builder := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, bc)
	var out []logic.Clause
	for _, e := range p.Pos[:n] {
		g, err := builder.GroundBottomClause(e)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// BenchmarkRepairedClauses times the repaired-clause expansions that
// preparing an example runs — the full expansion (negative coverage) and
// the CFD-only one (the Section 4.3 positive test) — over ground bottom
// clauses of generated movies examples. It fails if an expansion comes back
// empty.
func BenchmarkRepairedClauses(b *testing.B) {
	grounds := moviesGroundClauses(b, 8)
	for _, bm := range []struct {
		name string
		opts repair.Options
	}{
		{"full", repair.Options{}},
		{"cfd", repair.Options{Origin: logic.OriginCFD}},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, g := range grounds {
					if out, _ := repair.RepairedClausesContext(context.Background(), g, bm.opts); len(out) == 0 {
						b.Fatalf("no repaired clauses for %v", g.Head)
					}
				}
			}
		})
	}
}
