package core

import (
	"context"
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/constraints"
	"dlearn/internal/coverage"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// smallMovieProblem is a compact, fully controlled learning task: high
// grossing movies are exactly the comedies; titles in the target examples
// are reformatted relative to the database so the MD is required.
func smallMovieProblem() Problem {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("movies",
		relation.Attr("id", "imdb_id"), relation.Attr("title", "imdb_title"), relation.ConstAttr("year", "year")))
	s.MustAdd(relation.NewRelation("mov2genres",
		relation.Attr("id", "imdb_id"), relation.ConstAttr("genre", "genre")))
	s.MustAdd(relation.NewRelation("mov2countries",
		relation.Attr("id", "imdb_id"), relation.ConstAttr("country", "country")))

	in := relation.NewInstance(s)
	titles := []struct {
		id, title, genre, country string
	}{
		{"m1", "Silent Harbor", "comedy", "USA"},
		{"m2", "Crimson Station", "comedy", "UK"},
		{"m3", "Golden Orchard", "comedy", "USA"},
		{"m4", "Broken Mirror", "drama", "USA"},
		{"m5", "Hidden Canyon", "drama", "Spain"},
		{"m6", "Distant Signal", "thriller", "UK"},
		{"m7", "Electric Parade", "comedy", "USA"},
		{"m8", "Midnight Archive", "drama", "France"},
	}
	for i, m := range titles {
		in.MustInsert("movies", m.id, m.title+" (2007)", "2007")
		in.MustInsert("mov2genres", m.id, m.genre)
		in.MustInsert("mov2countries", m.id, m.country)
		_ = i
	}

	target := relation.NewRelation("highGrossing", relation.Attr("title", "bom_title"))
	md := constraints.SimpleMD("md_title", "highGrossing", "title", "movies", "title")

	var pos, neg []relation.Tuple
	for _, m := range titles {
		e := relation.NewTuple("highGrossing", m.title) // heterogeneous: no " (2007)" suffix
		if m.genre == "comedy" {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	return Problem{
		Instance: in,
		Target:   target,
		MDs:      []constraints.MD{md},
		Pos:      pos,
		Neg:      neg,
	}
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.BottomClause.Iterations = 2
	cfg.BottomClause.SampleSize = 8
	cfg.BottomClause.KM = 2
	cfg.GeneralizationSample = 4
	cfg.MaxClauses = 4
	return cfg
}

func TestProblemValidate(t *testing.T) {
	p := smallMovieProblem()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := p
	bad.Pos = nil
	if err := bad.Validate(); err == nil {
		t.Error("problem without positives must be rejected")
	}
	bad2 := p
	bad2.Pos = []relation.Tuple{relation.NewTuple("wrongTarget", "x")}
	if err := bad2.Validate(); err == nil {
		t.Error("examples of the wrong relation must be rejected")
	}
	bad3 := p
	bad3.Pos = []relation.Tuple{relation.NewTuple("highGrossing", "a", "b")}
	if err := bad3.Validate(); err == nil {
		t.Error("examples with wrong arity must be rejected")
	}
	bad4 := p
	bad4.CFDs = []constraints.CFD{constraints.FD("x", "unknown_rel", []string{"a"}, "b")}
	if err := bad4.Validate(); err == nil {
		t.Error("CFDs over unknown relations must be rejected")
	}
	bad5 := p
	bad5.Instance = nil
	if err := bad5.Validate(); err == nil {
		t.Error("nil instance must be rejected")
	}
}

func TestLearnComedyConcept(t *testing.T) {
	p := smallMovieProblem()
	learner := NewLearner(fastConfig())
	def, report, err := learner.LearnContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() == 0 {
		t.Fatal("no clauses learned")
	}
	if report.Duration <= 0 || report.ClausesConsidered == 0 || report.SeedsTried == 0 {
		t.Errorf("report not filled in: %+v", report)
	}
	// The learned definition must reference the comedy genre.
	foundComedy := false
	for _, c := range def.Clauses {
		for _, l := range c.Body {
			for _, a := range l.Args {
				if a == logic.Const("comedy") {
					foundComedy = true
				}
			}
		}
	}
	if !foundComedy {
		t.Errorf("learned definition does not mention the comedy genre:\n%s", def)
	}
	// Training-set predictions: every positive covered, no negative covered.
	model := NewModel(def, p, learner.Config())
	for _, e := range p.Pos {
		got, err := model.Predict(e)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Errorf("positive example %v not covered by the learned definition", e)
		}
	}
	wrong := 0
	for _, e := range p.Neg {
		got, err := model.Predict(e)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			wrong++
		}
	}
	if wrong > 1 {
		t.Errorf("learned definition covers %d of %d negative examples", wrong, len(p.Neg))
	}
}

func TestLearnWithoutMDsFailsToGeneralize(t *testing.T) {
	// The same problem without MD information cannot connect the examples
	// to the database, so the learned definition covers nothing beyond
	// over-general clauses, which the acceptance test rejects.
	p := smallMovieProblem()
	cfg := fastConfig()
	cfg.BottomClause.MDMode = bottomclause.MDIgnore
	def, _, err := NewLearner(cfg).LearnContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range def.Clauses {
		if c.Length() > 0 {
			t.Errorf("Castor-NoMD should not find any informative clause, got %v", c)
		}
	}
}

func TestLearnModelConvenience(t *testing.T) {
	p := smallMovieProblem()
	model, report, err := LearnModelContext(context.Background(), p, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if model.Definition.Len() == 0 || report == nil {
		t.Fatal("LearnModelContext did not produce a model and report")
	}
	preds, err := model.PredictAll(p.Pos)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(p.Pos) {
		t.Fatalf("PredictAll returned %d predictions", len(preds))
	}
}

func TestLearnerConfigDefaults(t *testing.T) {
	l := NewLearner(Config{})
	cfg := l.Config()
	if cfg.GeneralizationSample <= 0 || cfg.MaxClauses <= 0 || cfg.Threads <= 0 ||
		cfg.MinPositiveCoverage <= 0 || cfg.MaxNegativeFraction <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestUncoveredBitmapSubtract(t *testing.T) {
	unc := coverage.FullBits(5)
	covered := coverage.FullBits(5)
	for _, i := range []int{0, 2, 4} {
		covered.Clear(i)
	}
	unc.AndNot(covered)
	var got []int
	for i := unc.Next(0); i >= 0; i = unc.Next(i + 1) {
		got = append(got, i)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Errorf("uncovered after AndNot = %v, want [0 2 4]", got)
	}
	unc.Clear(0)
	if unc.Count() != 2 || unc.Next(0) != 2 {
		t.Errorf("after Clear(0): count=%d first=%d", unc.Count(), unc.Next(0))
	}
}
