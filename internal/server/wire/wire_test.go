package wire

import (
	"context"
	"encoding/json"
	"testing"

	"dlearn"
	"dlearn/internal/core"
)

// testProblem builds a small problem exercising every wire feature:
// several relations, constant attributes, MDs, a CFD with a pattern, and
// both example polarities.
func testProblem(t *testing.T) *dlearn.Problem {
	t.Helper()
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
	b := dlearn.NewProblem(target).
		OnInstance(db).
		WithMDs(dlearn.SimpleMD("md_title", "highGrossing", "title", "movies", "title")).
		WithCFDs(dlearn.NewCFD("cfd_year", "movies", []string{"id"}, "year", map[string]string{"year": "2007"}))
	for _, r := range rows {
		if r.genre == "comedy" {
			b.PosValues(r.title)
		} else {
			b.NegValues(r.title)
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testEngineOptions() Options {
	return Options{
		Seed:                 7,
		Threads:              2,
		Iterations:           2,
		TopMatches:           2,
		GeneralizationSample: 3,
		MaxClauses:           3,
	}
}

func engineFromWire(t *testing.T, o Options) *dlearn.Engine {
	t.Helper()
	opts, err := o.EngineOptions()
	if err != nil {
		t.Fatal(err)
	}
	return dlearn.New(opts...)
}

// TestProblemRoundTripFingerprint is the codec's core contract: encoding a
// problem to JSON and decoding it back must reproduce every learning-
// relevant bit. The snapshot fingerprint hashes exactly those bits (the
// instance, constraints, examples and preparation options), so key equality
// is the strongest practical equality check.
func TestProblemRoundTripFingerprint(t *testing.T) {
	p := testProblem(t)
	data, err := json.Marshal(EncodeProblem(p))
	if err != nil {
		t.Fatal(err)
	}
	var w Problem
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	back, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}

	cfg := engineFromWire(t, testEngineOptions()).Config()
	want := core.SnapshotFingerprint(*p, cfg).Key()
	got := core.SnapshotFingerprint(*back, cfg).Key()
	if want != got {
		t.Fatalf("round trip changed the snapshot fingerprint:\n  want %s\n  got  %s", want, got)
	}
}

// TestProblemRoundTripLearnsIdentically learns over the original and the
// round-tripped problem and requires byte-identical definitions — the
// end-to-end property dlearn-serve's remote path relies on.
func TestProblemRoundTripLearnsIdentically(t *testing.T) {
	p := testProblem(t)
	data, err := json.Marshal(EncodeProblem(p))
	if err != nil {
		t.Fatal(err)
	}
	var w Problem
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	back, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	defA, _, err := engineFromWire(t, testEngineOptions()).Learn(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	defB, _, err := engineFromWire(t, testEngineOptions()).Learn(ctx, back)
	if err != nil {
		t.Fatal(err)
	}
	if defA.String() != defB.String() {
		t.Fatalf("definitions differ:\n--- original ---\n%s\n--- round-tripped ---\n%s", defA, defB)
	}
}

func TestDecodeRejectsMalformedProblems(t *testing.T) {
	base := func() Problem { return EncodeProblem(testProblem(t)) }

	cases := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"missing target name", func(w *Problem) { w.Target.Name = "" }},
		{"relation without attrs", func(w *Problem) { w.Relations[0].Attrs = nil }},
		{"unknown attribute type", func(w *Problem) { w.Relations[0].Attrs[0].Type = "decimal" }},
		{"duplicate relation", func(w *Problem) { w.Relations = append(w.Relations, w.Relations[0]) }},
		{"tuples for undeclared relation", func(w *Problem) { w.Tuples["ghost"] = [][]string{{"x"}} }},
		{"tuple arity mismatch", func(w *Problem) { w.Tuples["movies"][0] = []string{"only-one"} }},
		{"bad MD", func(w *Problem) { w.MDs[0].LeftRel = "nope" }},
		{"bad CFD", func(w *Problem) { w.CFDs[0].RHS = "nope" }},
		{"no positives", func(w *Problem) { w.Pos = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := base()
			tc.mutate(&w)
			if _, err := w.Decode(); err == nil {
				t.Error("Decode accepted a malformed problem")
			}
		})
	}
}

func TestEngineOptionsApplied(t *testing.T) {
	o := Options{
		Seed: 42, Threads: 3, CandidateParallelism: 2, Iterations: 4, SampleSize: 6,
		TopMatches: 5, SimilarityThreshold: 0.7, MDMode: "exact", CFDRepairs: true,
		NoiseTolerance: 0.125, MaxClauses: 9, MinPositiveCoverage: 3,
		GeneralizationSample: 7, NegativeSearchSample: 11,
		SubsumptionMaxNodes: 1234, RepairMaxClauses: 8, RepairMaxStates: 99,
	}
	cfg := engineFromWire(t, o).Config()
	if cfg.Seed != 42 || cfg.Threads != 3 || cfg.CandidateParallelism != 2 ||
		cfg.MaxNegativeFraction != 0.125 || cfg.MaxClauses != 9 || cfg.MinPositiveCoverage != 3 ||
		cfg.GeneralizationSample != 7 || cfg.NegativeSearchSample != 11 {
		t.Errorf("learner options not applied: %+v", cfg)
	}
	bc := cfg.BottomClause
	if bc.Iterations != 4 || bc.SampleSize != 6 || bc.KM != 5 || bc.SimilarityThreshold != 0.7 ||
		bc.MDMode != dlearn.MDExact || !bc.UseCFDs || bc.Seed != 42 {
		t.Errorf("bottom-clause options not applied: %+v", bc)
	}
	if cfg.Subsumption.MaxNodes != 1234 || cfg.Repair.MaxClauses != 8 || cfg.Repair.MaxStates != 99 {
		t.Errorf("budget options not applied: %+v", cfg)
	}
	if _, err := (Options{MDMode: "telepathy"}).EngineOptions(); err == nil {
		t.Error("unknown md_mode must be rejected")
	}
	if (Options{}).Timeout() != 0 {
		t.Error("unset timeout must be zero")
	}
	if (Options{TimeoutSeconds: 1.5}).Timeout().Milliseconds() != 1500 {
		t.Error("timeout seconds not converted")
	}
}
