package bottomclause_test

import (
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/datagen"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// groundingBench is the 300 labelled tuples of a seed-1, 600-movie instance
// with k_m = 2, the grounding classification does per tuple, and the clause
// an untimed pass grounds each tuple to.
type groundingBench struct {
	newBuilder func() *bottomclause.Builder
	tuples     []relation.Tuple
	want       []string
}

func newGroundingBench(b *testing.B) *groundingBench {
	cfg := datagen.DefaultMoviesConfig()
	cfg.Movies, cfg.Positives, cfg.Negatives, cfg.Seed = 600, 80, 220, 1
	ds, err := datagen.Movies(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Problem
	bc := bottomclause.DefaultConfig()
	bc.KM, bc.Seed = 2, 1
	g := &groundingBench{
		newBuilder: func() *bottomclause.Builder {
			return bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, bc)
		},
		tuples: append(append([]relation.Tuple(nil), p.Pos...), p.Neg...),
	}
	for _, c := range g.ground(b, g.newBuilder()) {
		g.want = append(g.want, c.String())
	}
	return g
}

func (g *groundingBench) ground(b *testing.B, builder *bottomclause.Builder) []logic.Clause {
	clauses := make([]logic.Clause, len(g.tuples))
	for i, t := range g.tuples {
		c, err := builder.GroundBottomClause(t)
		if err != nil {
			b.Fatal(err)
		}
		clauses[i] = c
	}
	return clauses
}

// check fails the benchmark if a pass grounded any tuple to a different
// clause than the untimed pass.
func (g *groundingBench) check(b *testing.B, clauses []logic.Clause) {
	for j, c := range clauses {
		if got := c.String(); got != g.want[j] {
			b.Fatalf("tuple %d grounds to\n%s\nwant\n%s", j, got, g.want[j])
		}
	}
}

// BenchmarkGroundBottomClause grounds the benchmark tuples with one builder
// for every pass, as one model serves every tuple it classifies: the untimed
// pass builds its similarity indexes and fills its top-k_m memo, so timed
// passes measure warm grounding.
func BenchmarkGroundBottomClause(b *testing.B) {
	g := newGroundingBench(b)
	builder := g.newBuilder()
	g.check(b, g.ground(b, builder))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clauses := g.ground(b, builder)
		b.StopTimer()
		g.check(b, clauses)
		b.StartTimer()
	}
}

// BenchmarkGroundBottomClauseCold grounds the benchmark tuples with a fresh
// builder per pass, so every pass builds its similarity indexes, top-k_m
// memo and row-identity tables: the first pass of a new model.
func BenchmarkGroundBottomClauseCold(b *testing.B) {
	g := newGroundingBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clauses := g.ground(b, g.newBuilder())
		b.StopTimer()
		g.check(b, clauses)
		b.StartTimer()
	}
}
