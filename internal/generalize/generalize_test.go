package generalize

import (
	"context"
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/constraints"
	"dlearn/internal/coverage"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
	"dlearn/internal/subsumption"
)

// paperDB is the movie database of Table 2 with a BOM-style target.
func paperDB() (*bottomclause.Builder, *coverage.Evaluator) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("movies",
		relation.Attr("id", "imdb_id"), relation.Attr("title", "imdb_title"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("mov2genres",
		relation.Attr("id", "imdb_id"), relation.ConstAttr("genre", "genre")))
	s.MustAdd(relation.NewRelation("mov2releasedate",
		relation.Attr("id", "imdb_id"), relation.ConstAttr("month", "month"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("englishMovies", relation.Attr("id", "imdb_id")))

	in := relation.NewInstance(s)
	in.MustInsert("movies", "m1", "Superbad (2007)", "2007")
	in.MustInsert("movies", "m2", "Zoolander (2001)", "2001")
	in.MustInsert("movies", "m3", "Orphanage (2007)", "2007")
	in.MustInsert("mov2genres", "m1", "comedy")
	in.MustInsert("mov2genres", "m2", "comedy")
	in.MustInsert("mov2genres", "m3", "drama")
	in.MustInsert("mov2releasedate", "m1", "August", "2007")
	in.MustInsert("mov2releasedate", "m2", "September", "2001")
	in.MustInsert("englishMovies", "m1")
	in.MustInsert("englishMovies", "m2")

	target := relation.NewRelation("highGrossing", relation.Attr("title", "bom_title"))
	md := constraints.SimpleMD("md_title", "highGrossing", "title", "movies", "title")
	cfg := bottomclause.DefaultConfig()
	cfg.SampleSize = 20
	cfg.UseCFDs = false
	b := bottomclause.NewBuilder(in, target, []constraints.MD{md}, nil, cfg)
	ev := coverage.NewEvaluator(coverage.Options{Threads: 1})
	return b, ev
}

// covers is the coverage predicate the tests generalize with: whether
// clause c covers the positive example whose ground bottom clause is g
// (Section 4.3), tested on the prepared example as the learner does.
func covers(ev *coverage.Evaluator) func(c, g logic.Clause) bool {
	return func(c, g logic.Clause) bool {
		ctx := context.Background()
		return ev.CoversPositiveExample(ctx, c, ev.NewExample(ctx, g))
	}
}

func TestGeneralizeExample47(t *testing.T) {
	// Example 4.7: generalizing the Superbad bottom clause to cover
	// Zoolander drops the August release-date literal (Zoolander was
	// released in September), while the comedy literal survives.
	b, ev := paperDB()
	g := New(covers(ev))

	bottom, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	gz, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Zoolander"))
	if err != nil {
		t.Fatal(err)
	}
	out, ok := g.Generalize(bottom, gz)
	if !ok {
		t.Fatalf("generalization failed: %v", out)
	}
	if !covers(ev)(out, gz) {
		t.Fatal("generalized clause does not cover the new example")
	}
	var hasAugust, hasComedy bool
	for _, l := range out.Body {
		for _, a := range l.Args {
			if a == logic.Const("August") {
				hasAugust = true
			}
			if a == logic.Const("comedy") {
				hasComedy = true
			}
		}
	}
	if hasAugust {
		t.Error("blocking literal mov2releasedate(…, August, …) should have been removed")
	}
	if !hasComedy {
		t.Error("the shared comedy literal should survive generalization")
	}
	// The original example must still be covered (generalization only
	// drops literals, Theorem 4.6 soundness).
	gs, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	if !covers(ev)(out, gs) {
		t.Error("generalized clause no longer covers the seed example")
	}
}

func TestGeneralizeProducesSubsumingClause(t *testing.T) {
	// The generalization must θ-subsume the original clause (it is obtained
	// by dropping literals), giving the soundness direction of Prop. 4.8.
	b, ev := paperDB()
	g := New(covers(ev))
	ch := subsumption.New(subsumption.Options{})

	bottom, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	gz, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Zoolander"))
	if err != nil {
		t.Fatal(err)
	}
	out, ok := g.Generalize(bottom, gz)
	if !ok {
		t.Fatal("generalization failed")
	}
	if sub, _, _ := subsumption.CompileCandidate(out).Probe(context.Background(), ch.Prepare(bottom), false); !sub {
		t.Error("generalization must θ-subsume the clause it was derived from")
	}
	if out.Length() >= bottom.Length() {
		t.Error("generalization should have removed at least one literal")
	}
}

func TestGeneralizeUncoverableExample(t *testing.T) {
	// An example whose title matches nothing cannot be covered; the
	// generalizer reports failure and leaves the clause intact when even
	// the head cannot cover, or returns the maximally generalized clause.
	b, ev := paperDB()
	g := New(covers(ev))
	bottom, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	// Head-arity mismatch is rejected outright.
	bad := logic.NewClause(logic.Rel("otherTarget", logic.Var("x")))
	if _, ok := g.Generalize(bottom, bad); ok {
		t.Error("mismatched heads must not generalize")
	}
	// A completely unrelated example: the bare head covers it (it has no
	// body), so generalization succeeds by dropping everything relevant.
	gUnknown, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Completely Unknown"))
	if err != nil {
		t.Fatal(err)
	}
	out, ok := g.Generalize(bottom, gUnknown)
	if !ok {
		t.Fatal("generalizing toward an empty ground clause should succeed (empty body covers it)")
	}
	if !covers(ev)(out, gUnknown) {
		t.Error("result does not cover the new example")
	}
}

func TestGeneralizeAlreadyCovering(t *testing.T) {
	// A clause that already covers the example is returned unchanged.
	b, ev := paperDB()
	g := New(covers(ev))
	c := logic.NewClause(
		logic.Rel("highGrossing", logic.Var("x")),
	)
	gz, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Zoolander"))
	if err != nil {
		t.Fatal(err)
	}
	out, ok := g.Generalize(c, gz)
	if !ok || out.Length() != 0 {
		t.Fatalf("covering clause should be returned unchanged, got %v (%v)", out, ok)
	}
}
