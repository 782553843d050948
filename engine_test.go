package dlearn_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"dlearn"
)

// buildTinyProblemFluent is buildTinyProblem expressed through the
// ProblemBuilder, exercising the fluent path end to end.
func buildTinyProblemFluent(t *testing.T) *dlearn.Problem {
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
		WithMDs(dlearn.SimpleMD("md_title", "highGrossing", "title", "movies", "title"))
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

func tinyEngineOptions() []dlearn.Option {
	return []dlearn.Option{
		dlearn.WithThreads(2),
		dlearn.WithIterations(2),
		dlearn.WithTopMatches(2),
		dlearn.WithGeneralizationSample(3),
		dlearn.WithMaxClauses(3),
	}
}

func TestEngineOptionDefaults(t *testing.T) {
	def := dlearn.DefaultConfig()
	cfg := dlearn.New().Config()
	if cfg.Threads != def.Threads || cfg.Seed != def.Seed ||
		cfg.MaxClauses != def.MaxClauses || cfg.MaxNegativeFraction != def.MaxNegativeFraction {
		t.Errorf("New() must start from DefaultConfig; got %+v", cfg)
	}
}

func TestEngineOptionApplication(t *testing.T) {
	cfg := dlearn.New(
		dlearn.WithThreads(7),
		dlearn.WithSeed(42),
		dlearn.WithNoiseTolerance(0.125),
		dlearn.WithMaxClauses(9),
		dlearn.WithMinPositiveCoverage(3),
		dlearn.WithGeneralizationSample(5),
		dlearn.WithNegativeSearchSample(11),
		dlearn.WithSubsumptionBudget(1234),
		dlearn.WithRepairBudget(8, 99),
		dlearn.WithIterations(4),
		dlearn.WithSampleSize(6),
		dlearn.WithTopMatches(3),
		dlearn.WithSimilarityThreshold(0.7),
		dlearn.WithMDMode(dlearn.MDExact),
		dlearn.WithCFDRepairs(false),
	).Config()
	if cfg.Threads != 7 || cfg.Seed != 42 || cfg.MaxNegativeFraction != 0.125 ||
		cfg.MaxClauses != 9 || cfg.MinPositiveCoverage != 3 ||
		cfg.GeneralizationSample != 5 || cfg.NegativeSearchSample != 11 {
		t.Errorf("learner options not applied: %+v", cfg)
	}
	if cfg.Subsumption.MaxNodes != 1234 || cfg.Repair.MaxClauses != 8 || cfg.Repair.MaxStates != 99 {
		t.Errorf("budget options not applied: %+v", cfg)
	}
	bc := cfg.BottomClause
	if bc.Iterations != 4 || bc.SampleSize != 6 || bc.KM != 3 || bc.SimilarityThreshold != 0.7 ||
		bc.MDMode != dlearn.MDExact || bc.UseCFDs || bc.Seed != 42 {
		t.Errorf("bottom-clause options not applied: %+v", bc)
	}
}

func TestEngineWithConfigComposes(t *testing.T) {
	base := dlearn.DefaultConfig()
	base.MaxClauses = 2
	cfg := dlearn.New(dlearn.WithConfig(base), dlearn.WithThreads(3)).Config()
	if cfg.MaxClauses != 2 || cfg.Threads != 3 {
		t.Errorf("WithConfig must compose with later options: %+v", cfg)
	}
}

func TestProblemBuilderValidationErrors(t *testing.T) {
	target := dlearn.NewRelation("t", dlearn.Attr("a", "d"))
	schema := dlearn.NewSchema()
	schema.MustAdd(dlearn.NewRelation("r", dlearn.Attr("a", "d")))
	db := dlearn.NewInstance(schema)

	cases := []struct {
		name  string
		build func() (*dlearn.Problem, error)
	}{
		{"nil target", func() (*dlearn.Problem, error) {
			return dlearn.NewProblem(nil).OnInstance(db).PosValues("x").Build()
		}},
		{"missing instance", func() (*dlearn.Problem, error) {
			return dlearn.NewProblem(target).PosValues("x").Build()
		}},
		{"nil instance", func() (*dlearn.Problem, error) {
			return dlearn.NewProblem(target).OnInstance(nil).PosValues("x").Build()
		}},
		{"no positives", func() (*dlearn.Problem, error) {
			return dlearn.NewProblem(target).OnInstance(db).NegValues("x").Build()
		}},
		{"wrong relation example", func() (*dlearn.Problem, error) {
			return dlearn.NewProblem(target).OnInstance(db).Pos(dlearn.NewTuple("other", "x")).Build()
		}},
		{"wrong arity example", func() (*dlearn.Problem, error) {
			return dlearn.NewProblem(target).OnInstance(db).PosValues("x", "y").Build()
		}},
		{"bad MD", func() (*dlearn.Problem, error) {
			return dlearn.NewProblem(target).OnInstance(db).
				WithMDs(dlearn.SimpleMD("md", "nope", "a", "r", "a")).
				PosValues("x").Build()
		}},
		{"bad CFD", func() (*dlearn.Problem, error) {
			return dlearn.NewProblem(target).OnInstance(db).
				WithCFDs(dlearn.FD("fd", "unknown_rel", []string{"a"}, "a")).
				PosValues("x").Build()
		}},
	}
	for _, tc := range cases {
		if _, err := tc.build(); err == nil {
			t.Errorf("%s: Build must fail", tc.name)
		}
	}

	// A well-formed problem builds.
	if _, err := dlearn.NewProblem(target).OnInstance(db).PosValues("x").Build(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func TestEngineLearnFluent(t *testing.T) {
	p := buildTinyProblemFluent(t)
	eng := dlearn.New(tinyEngineOptions()...)
	def, report, err := eng.Learn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() == 0 {
		t.Fatal("no clauses learned through the Engine API")
	}
	if report.Duration <= 0 {
		t.Error("report duration missing")
	}
}

func TestEngineLearnNilProblem(t *testing.T) {
	if _, _, err := dlearn.New().Learn(context.Background(), nil); err == nil {
		t.Error("nil problem must be rejected")
	}
}

// TestEngineLearnHonorsCancellation cancels the context from inside the
// first covering iteration (via the observer) and requires Learn to return
// ctx.Err() promptly instead of finishing the search.
func TestEngineLearnHonorsCancellation(t *testing.T) {
	p := buildTinyProblemFluent(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	eng := dlearn.New(append(tinyEngineOptions(),
		dlearn.WithObserver(dlearn.ObserverFunc(func(e dlearn.Event) {
			if _, ok := e.(dlearn.IterationStarted); ok {
				cancel() // mid-search: bottom clauses built, covering started
			}
		})))...)

	start := time.Now()
	def, _, err := eng.Learn(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Learn = (%v, %v), want context.Canceled", def, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled Learn took %s; cancellation must interrupt the search promptly", elapsed)
	}
}

func TestEngineLearnPreCancelled(t *testing.T) {
	p := buildTinyProblemFluent(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := dlearn.New(tinyEngineOptions()...).Learn(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Learn with cancelled context = %v, want context.Canceled", err)
	}
}

// TestEngineDeterministicAcrossRuns is the regression test for seed-driven
// determinism: the same engine run twice — and a second engine with the same
// seed — must produce identical definitions.
func TestEngineDeterministicAcrossRuns(t *testing.T) {
	p := buildTinyProblemFluent(t)
	opts := append(tinyEngineOptions(), dlearn.WithSeed(7))
	eng := dlearn.New(opts...)

	def1, _, err := eng.Learn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	def2, _, err := eng.Learn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if def1.String() != def2.String() {
		t.Errorf("same engine, same seed, different definitions:\n%s\nvs\n%s", def1, def2)
	}

	def3, _, err := dlearn.New(opts...).Learn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if def1.String() != def3.String() {
		t.Errorf("fresh engine with same seed diverged:\n%s\nvs\n%s", def1, def3)
	}
}

// tinyGoldenDefinition is the definition learned from the tiny problem with
// tinyEngineOptions and seed 7, captured before the data layer moved to the
// interned columnar backend. Pinning the exact bytes (not just cross-run
// equality) proves the refactor changed the representation without changing
// a single learned clause.
const tinyGoldenDefinition = "highGrossing(v0) <- v0 ~ v1, V[md_title/md_title#0|v0~v1](v0, f0), V[md_title/md_title#0|v0~v1](v1, f1), f0 = f1, movies(v2, v1, 2007), movies(v3, v4, 2007), movies(v5, v6, 2007), movies(v7, v8, 2007), movies(v9, v10, 2007), movies(v11, v12, 2007), mov2genres(v2, comedy).  (pos=3, neg=0)"

// TestEngineDeterministicAcrossThreadCounts pins the two-tier scheduler's
// central promise: the learned definition is byte-identical for a fixed seed
// regardless of the inner thread count and the outer candidate parallelism,
// because the scheduler's shared floor only prunes candidates that provably
// cannot win. The serial reference is additionally pinned to the pre-refactor golden output, so the whole matrix
// transitively certifies the interned data layer against the boxed one.
func TestEngineDeterministicAcrossThreadCounts(t *testing.T) {
	p := buildTinyProblemFluent(t)
	base := append(tinyEngineOptions(), dlearn.WithSeed(7))
	ref, _, err := dlearn.New(append(base, dlearn.WithThreads(1), dlearn.WithCandidateParallelism(1))...).
		Learn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.String() != tinyGoldenDefinition {
		t.Errorf("serial run diverged from the pre-refactor golden definition:\n%s\nvs\n%s", ref, tinyGoldenDefinition)
	}
	for _, cfg := range []struct{ threads, candPar int }{
		{1, 1}, {1, 4}, {4, 1}, {4, 4}, {8, 3}, {16, 8},
	} {
		def, _, err := dlearn.New(append(base,
			dlearn.WithThreads(cfg.threads),
			dlearn.WithCandidateParallelism(cfg.candPar))...).
			Learn(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if def.String() != ref.String() {
			t.Errorf("threads=%d candidateParallelism=%d diverged from the serial run:\n%s\nvs\n%s",
				cfg.threads, cfg.candPar, def, ref)
		}
	}
}

// TestEngineReportsExhaustedProbes pins the exhausted-probe count on the
// report: a tiny node budget forces budget hits that must be counted, and
// the default-budget golden run reports the same count whatever the thread
// count and candidate parallelism.
func TestEngineReportsExhaustedProbes(t *testing.T) {
	p := buildTinyProblemFluent(t)
	base := append(tinyEngineOptions(), dlearn.WithSeed(7))
	_, report, err := dlearn.New(append(base, dlearn.WithSubsumptionBudget(2))...).Learn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if report.ExhaustedProbes <= 0 {
		t.Errorf("a 2-node budget reported %d exhausted probes, want > 0", report.ExhaustedProbes)
	}

	want := int64(-1)
	for _, cfg := range []struct{ threads, candPar int }{{1, 1}, {1, 4}, {4, 1}, {4, 4}, {8, 3}} {
		def, report, err := dlearn.New(append(base,
			dlearn.WithThreads(cfg.threads),
			dlearn.WithCandidateParallelism(cfg.candPar))...).
			Learn(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if def.String() != tinyGoldenDefinition {
			t.Fatalf("threads=%d candidateParallelism=%d diverged from the golden definition", cfg.threads, cfg.candPar)
		}
		if want < 0 {
			want = report.ExhaustedProbes
		}
		if report.ExhaustedProbes != want {
			t.Errorf("threads=%d candidateParallelism=%d reported %d exhausted probes, want %d",
				cfg.threads, cfg.candPar, report.ExhaustedProbes, want)
		}
	}
	t.Logf("default budget: %d exhausted probes", want)
}

// TestEngineReportsTruncatedExpansions pins the truncated-expansion count
// on the report and on RunFinished: a one-state repair budget cuts the
// expansions that branch, the default budget cuts none of the golden run's,
// and counting changes no learned definition, whatever the thread count and
// candidate parallelism.
func TestEngineReportsTruncatedExpansions(t *testing.T) {
	p := buildTinyProblemFluent(t)
	base := append(tinyEngineOptions(), dlearn.WithSeed(7))
	var finished dlearn.RunFinished
	obs := dlearn.ObserverFunc(func(e dlearn.Event) {
		if ev, ok := e.(dlearn.RunFinished); ok {
			finished = ev
		}
	})
	_, report, err := dlearn.New(append(base, dlearn.WithRepairBudget(0, 1), dlearn.WithObserver(obs))...).Learn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if report.TruncatedExpansions <= 0 || finished.TruncatedExpansions != report.TruncatedExpansions {
		t.Errorf("a one-state repair budget reported %d truncated expansions (RunFinished: %d), want the same count > 0",
			report.TruncatedExpansions, finished.TruncatedExpansions)
	}
	for _, cfg := range []struct{ threads, candPar int }{{1, 1}, {4, 4}} {
		def, report, err := dlearn.New(append(base,
			dlearn.WithThreads(cfg.threads),
			dlearn.WithCandidateParallelism(cfg.candPar))...).
			Learn(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if def.String() != tinyGoldenDefinition || report.TruncatedExpansions != 0 {
			t.Errorf("threads=%d candidateParallelism=%d: %d truncated expansions, golden definition %v; want 0 and true",
				cfg.threads, cfg.candPar, report.TruncatedExpansions, def.String() == tinyGoldenDefinition)
		}
	}
}

// moviesGoldenDefinition is the definition learned from the generated
// IMDB+OMDB dataset below, captured before the interned columnar data layer
// replaced the boxed one. The two clauses are joined by "\n" exactly as
// Definition.String renders them.
const moviesGoldenDefinition = "dramaRestrictedMovies(v0) <- imdb_mov2genres(v0, Drama), imdb_mov2genres(v0, Documentary), imdb_mov2cast(v0, v7), imdb_mov2cast(v0, v8), imdb_mov2writers(v0, v9), imdb_mov2cast(v20, v7), imdb_mov2writers(v21, v8), imdb_mov2writers(v22, v8).  (pos=3, neg=0)\n" +
	"dramaRestrictedMovies(v0) <- v1 ~ v2, V[md_title/md_title#0|v1~v2](v1, f0), f0 = f1, v1 ~ v3, V[md_title/md_title#1|v1~v3](v1, f2), f2 = f3, v1 ~ v4, V[md_title/md_title#2|v1~v4](v1, f4), f4 = f5, v1 ~ v5, V[md_title/md_title#3|v1~v5](v1, f6), f6 = f7, v1 ~ v6, V[md_title/md_title#4|v1~v6](v1, f8), f8 = f9, imdb_movies(v0, v1, 1994), imdb_mov2genres(v0, Drama), imdb_mov2cast(v0, v7), imdb_mov2cast(v0, v8), imdb_mov2writers(v0, v9), imdb_mov2writers(v21, v7).  (pos=2, neg=0)"

// TestEngineGoldenMoviesAcrossThreadCounts is the generated-dataset leg of
// the golden-determinism battery: a small IMDB+OMDB problem (exercising MDs,
// similarity literals and the full bottom-clause pipeline against the
// interned instance) must learn the exact pre-refactor definition, across
// thread counts and candidate parallelism.
func TestEngineGoldenMoviesAcrossThreadCounts(t *testing.T) {
	mcfg := dlearn.DefaultMoviesConfig()
	mcfg.MDCount = 1
	mcfg.Seed = 101
	mcfg.Movies = 100
	mcfg.Positives = 12
	mcfg.Negatives = 24
	ds, err := dlearn.GenerateMovies(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &dlearn.Problem{
		Target:   ds.Problem.Target,
		Instance: ds.Problem.Instance,
		MDs:      ds.Problem.MDs,
		CFDs:     ds.Problem.CFDs,
		Pos:      ds.Problem.Pos,
		Neg:      ds.Problem.Neg,
	}
	base := []dlearn.Option{
		dlearn.WithSeed(3),
		dlearn.WithIterations(2),
		dlearn.WithSampleSize(4),
		dlearn.WithGeneralizationSample(4),
		dlearn.WithNegativeSearchSample(16),
		dlearn.WithMaxClauses(4),
		dlearn.WithSubsumptionBudget(10000),
	}
	for _, cfg := range []struct{ threads, candPar int }{
		{1, 1}, {4, 1}, {4, 4}, {8, 3},
	} {
		def, _, err := dlearn.New(append(base,
			dlearn.WithThreads(cfg.threads),
			dlearn.WithCandidateParallelism(cfg.candPar))...).
			Learn(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if def.String() != moviesGoldenDefinition {
			t.Errorf("threads=%d candidateParallelism=%d diverged from the pre-refactor golden:\n%s\nvs\n%s",
				cfg.threads, cfg.candPar, def, moviesGoldenDefinition)
		}
	}
}

// TestEngineObserverEventStream checks the observer sees a coherent event
// stream: a run start, both phase completions, at least one iteration and a
// final RunFinished consistent with the returned report.
func TestEngineObserverEventStream(t *testing.T) {
	p := buildTinyProblemFluent(t)
	var events []dlearn.Event
	eng := dlearn.New(append(tinyEngineOptions(),
		dlearn.WithObserver(dlearn.ObserverFunc(func(e dlearn.Event) {
			events = append(events, e)
		})))...)
	def, report, err := eng.Learn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	var started, finished bool
	var phases []string
	var iterations, accepted int
	for _, e := range events {
		switch ev := e.(type) {
		case dlearn.RunStarted:
			started = true
			if ev.Target != "highGrossing" || ev.Positives == 0 {
				t.Errorf("bad RunStarted: %+v", ev)
			}
		case dlearn.PhaseDone:
			phases = append(phases, ev.Phase)
		case dlearn.IterationStarted:
			iterations++
		case dlearn.ClauseAccepted:
			accepted++
		case dlearn.RunFinished:
			finished = true
			if ev.Clauses != def.Len() || ev.UncoveredPositives != report.UncoveredPositives ||
				ev.ExhaustedProbes != report.ExhaustedProbes || ev.TruncatedExpansions != report.TruncatedExpansions {
				t.Errorf("RunFinished %+v disagrees with report %+v", ev, report)
			}
		}
	}
	if !started || !finished {
		t.Errorf("missing run boundary events (started=%v finished=%v)", started, finished)
	}
	if len(phases) != 2 || phases[0] != dlearn.PhaseBottomClauses || phases[1] != dlearn.PhaseCovering {
		t.Errorf("phases = %v, want [%s %s]", phases, dlearn.PhaseBottomClauses, dlearn.PhaseCovering)
	}
	if iterations == 0 {
		t.Error("no IterationStarted events")
	}
	if accepted != def.Len() {
		t.Errorf("%d ClauseAccepted events for %d learned clauses", accepted, def.Len())
	}
}

// TestEngineCandidateBatchesReportProbes pins the probe telemetry of a real
// covering run: some candidate batch issues θ-subsumption probes that explore
// search nodes, and no batch reports more planned probes than probes.
func TestEngineCandidateBatchesReportProbes(t *testing.T) {
	p := buildTinyProblemFluent(t)
	var batches []dlearn.CandidateBatchScored
	eng := dlearn.New(append(tinyEngineOptions(),
		dlearn.WithObserver(dlearn.ObserverFunc(func(e dlearn.Event) {
			if b, ok := e.(dlearn.CandidateBatchScored); ok {
				batches = append(batches, b)
			}
		})))...)
	if _, _, err := eng.Learn(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	searched := false
	for _, b := range batches {
		if b.PlannedProbes > b.Probes {
			t.Errorf("batch reports %d planned probes of %d probes: %+v", b.PlannedProbes, b.Probes, b)
		}
		if b.Probes > 0 && b.SearchNodes > 0 {
			searched = true
		}
	}
	if !searched {
		t.Errorf("no candidate batch reported probes and search nodes in %d batches: %+v", len(batches), batches)
	}
}

func TestEngineRunBaseline(t *testing.T) {
	p := buildTinyProblemFluent(t)
	def, model, report, err := dlearn.New(tinyEngineOptions()...).
		RunBaseline(context.Background(), dlearn.CastorNoMD, p)
	if err != nil {
		t.Fatal(err)
	}
	if def == nil || model == nil || report == nil {
		t.Fatal("RunBaseline returned nil components")
	}
}

func TestMultiObserverFanOut(t *testing.T) {
	var a, b int
	obs := dlearn.MultiObserver(
		dlearn.ObserverFunc(func(dlearn.Event) { a++ }),
		nil,
		dlearn.ObserverFunc(func(dlearn.Event) { b++ }),
	)
	obs.Observe(dlearn.RunStarted{})
	obs.Observe(dlearn.RunFinished{})
	if a != 2 || b != 2 {
		t.Errorf("fan-out observed a=%d b=%d, want 2/2", a, b)
	}
}
