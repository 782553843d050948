package dlearn_test

import (
	"context"
	"strings"
	"testing"

	"dlearn"
)

// buildTinyProblem constructs the public-API equivalent of the package
// documentation example: high-grossing movies are the comedies, with BOM
// style titles that only match IMDB titles approximately.
func buildTinyProblem() dlearn.Problem {
	schema := dlearn.NewSchema()
	schema.MustAdd(dlearn.NewRelation("movies",
		dlearn.Attr("id", "imdb_id"), dlearn.Attr("title", "imdb_title"), dlearn.ConstAttr("year", "year")))
	schema.MustAdd(dlearn.NewRelation("mov2genres",
		dlearn.Attr("id", "imdb_id"), dlearn.ConstAttr("genre", "genre")))

	db := dlearn.NewInstance(schema)
	rows := []struct{ id, title, genre string }{
		{"m1", "Silent Harbor", "comedy"},
		{"m2", "Crimson Station", "comedy"},
		{"m3", "Broken Mirror", "drama"},
		{"m4", "Hidden Canyon", "drama"},
		{"m5", "Electric Parade", "comedy"},
		{"m6", "Midnight Archive", "thriller"},
	}
	for _, r := range rows {
		db.MustInsert("movies", r.id, r.title+" (2007)", "2007")
		db.MustInsert("mov2genres", r.id, r.genre)
	}

	target := dlearn.NewRelation("highGrossing", dlearn.Attr("title", "bom_title"))
	var pos, neg []dlearn.Tuple
	for _, r := range rows {
		e := dlearn.NewTuple("highGrossing", r.title)
		if r.genre == "comedy" {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	return dlearn.Problem{
		Instance: db,
		Target:   target,
		MDs:      []dlearn.MD{dlearn.SimpleMD("md_title", "highGrossing", "title", "movies", "title")},
		Pos:      pos,
		Neg:      neg,
	}
}

func tinyConfig() dlearn.Config {
	cfg := dlearn.DefaultConfig()
	cfg.Threads = 2
	cfg.BottomClause.Iterations = 2
	cfg.BottomClause.KM = 2
	cfg.GeneralizationSample = 3
	cfg.MaxClauses = 3
	return cfg
}

func TestPublicAPILearn(t *testing.T) {
	p := buildTinyProblem()
	def, report, err := dlearn.New(dlearn.WithConfig(tinyConfig())).Learn(context.Background(), &p)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() == 0 {
		t.Fatal("no clauses learned through the public API")
	}
	if report.Duration <= 0 {
		t.Error("report duration missing")
	}
	if !strings.Contains(def.String(), "comedy") {
		t.Errorf("learned definition should mention comedy:\n%s", def)
	}
}

func TestPublicAPIModelAndEvaluation(t *testing.T) {
	p := buildTinyProblem()
	model, _, err := dlearn.New(dlearn.WithConfig(tinyConfig())).LearnModel(context.Background(), &p)
	if err != nil {
		t.Fatal(err)
	}
	split := dlearn.Split{TestPos: p.Pos, TestNeg: p.Neg}
	m, err := dlearn.EvaluateSplit(model, split)
	if err != nil {
		t.Fatal(err)
	}
	if m.F1() < 0.9 {
		t.Errorf("training F1 = %.2f, expected near-perfect fit on the tiny problem", m.F1())
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	p := buildTinyProblem()
	def, model, report, err := dlearn.New(dlearn.WithConfig(tinyConfig())).RunBaseline(context.Background(), dlearn.CastorNoMD, &p)
	if err != nil {
		t.Fatal(err)
	}
	if def == nil || model == nil || report == nil {
		t.Fatal("RunBaseline returned nil components")
	}
	// Without MDs the heterogeneous titles cannot be connected, so no
	// informative clause can be learned.
	for _, c := range def.Clauses {
		if c.Length() > 0 {
			t.Errorf("Castor-NoMD learned an informative clause over heterogeneous data: %v", c)
		}
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	mcfg := dlearn.DefaultMoviesConfig()
	mcfg.Movies = 60
	mcfg.Positives = 8
	mcfg.Negatives = 16
	ds, err := dlearn.GenerateMovies(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Problem.Validate(); err != nil {
		t.Fatal(err)
	}
	pcfg := dlearn.DefaultProductsConfig()
	pcfg.Products = 50
	if _, err := dlearn.GenerateProducts(pcfg); err != nil {
		t.Fatal(err)
	}
	ccfg := dlearn.DefaultCitationsConfig()
	ccfg.Papers = 50
	ccfg.Positives = 20
	ccfg.Negatives = 40
	if _, err := dlearn.GenerateCitations(ccfg); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIKFold(t *testing.T) {
	p := buildTinyProblem()
	splits, err := dlearn.KFold(p.Pos, p.Neg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("expected 3 folds, got %d", len(splits))
	}
	if _, err := dlearn.HoldOut(p.Pos, p.Neg, 0.34, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExperimentOptions(t *testing.T) {
	if dlearn.DefaultExperimentOptions().Folds != 5 {
		t.Error("default experiment options should use 5-fold cross validation")
	}
	if !dlearn.QuickExperimentOptions().Quick {
		t.Error("quick experiment options should set Quick")
	}
}
