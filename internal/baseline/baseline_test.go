package baseline

import (
	"context"
	"testing"

	"dlearn/internal/core"
	"dlearn/internal/datagen"
	"dlearn/internal/eval"
)

// movieDataset generates a small IMDB+OMDB task shared by the tests.
func movieDataset(t *testing.T, violationRate float64) *datagen.Dataset {
	t.Helper()
	cfg := datagen.DefaultMoviesConfig()
	cfg.Movies = 100
	cfg.Positives = 12
	cfg.Negatives = 24
	cfg.ViolationRate = violationRate
	ds, err := datagen.Movies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Threads = 4
	cfg.BottomClause.Iterations = 3
	cfg.BottomClause.SampleSize = 4
	cfg.BottomClause.KM = 2
	cfg.GeneralizationSample = 4
	cfg.NegativeSearchSample = 16
	cfg.MaxClauses = 6
	cfg.Subsumption.MaxNodes = 10000
	return cfg
}

// trainF1 learns with the system on the dataset and evaluates on the
// training examples (enough to compare the systems' ability to express the
// concept at all).
func trainF1(t *testing.T, system System, ds *datagen.Dataset) float64 {
	t.Helper()
	res, err := RunContext(context.Background(), system, ds.Problem, testConfig())
	if err != nil {
		t.Fatalf("%s: %v", system, err)
	}
	split := eval.Split{TestPos: ds.Problem.Pos, TestNeg: ds.Problem.Neg}
	m, err := eval.EvaluateSplit(res.Model, split)
	if err != nil {
		t.Fatalf("%s: %v", system, err)
	}
	t.Logf("%s: %s (clauses=%d, time=%s)", system, m, res.Definition.Len(), res.Report.Duration)
	return m.F1()
}

func TestDLearnBeatsNoMDAndExact(t *testing.T) {
	if testing.Short() {
		t.Skip("learning integration test skipped in -short mode")
	}
	ds := movieDataset(t, 0)
	dlearn := trainF1(t, DLearn, ds)
	noMD := trainF1(t, CastorNoMD, ds)
	exact := trainF1(t, CastorExact, ds)
	// On this small a dataset the gap between the systems fluctuates (the
	// Castor baselines can overfit IMDB-side constants with perfect
	// precision), so the regression test only asserts the paper's ordering
	// cannot invert: DLearn is never worse than the MD-blind baselines and
	// retains a usable F1. The full-shape comparison lives in the Table 4
	// experiment (cmd/dlearn-bench, bench_test.go).
	if dlearn < noMD {
		t.Errorf("DLearn F1 (%.2f) should not be below Castor-NoMD F1 (%.2f)", dlearn, noMD)
	}
	if dlearn < exact {
		t.Errorf("DLearn F1 (%.2f) should not be below Castor-Exact F1 (%.2f)", dlearn, exact)
	}
	if dlearn < 0.4 {
		t.Errorf("DLearn F1 (%.2f) unexpectedly low on the clean MD-only dataset", dlearn)
	}
}

func TestCastorCleanRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("learning integration test skipped in -short mode")
	}
	ds := movieDataset(t, 0)
	f1 := trainF1(t, CastorClean, ds)
	if f1 < 0.25 {
		t.Errorf("Castor-Clean F1 (%.2f) unexpectedly low", f1)
	}
}

func TestDLearnCFDAndRepairedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("learning integration test skipped in -short mode")
	}
	ds := movieDataset(t, 0.10)
	cfd := trainF1(t, DLearnCFD, ds)
	repaired := trainF1(t, DLearnRepaired, ds)
	if cfd == 0 {
		t.Error("DLearn-CFD learned nothing on the violating dataset")
	}
	if repaired == 0 {
		t.Error("DLearn-Repaired learned nothing on the violating dataset")
	}
}

func TestRunUnknownSystem(t *testing.T) {
	ds := movieDataset(t, 0)
	if _, err := RunContext(context.Background(), System("bogus"), ds.Problem, testConfig()); err == nil {
		t.Fatal("unknown system must be rejected")
	}
}
