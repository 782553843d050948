// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6) in quick mode, plus ablation benchmarks for the design choices
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// For paper-scale runs use cmd/dlearn-bench, which uses the full dataset
// sizes and the 5-fold cross validation of the paper.
package dlearn_test

import (
	"context"
	"io"
	"testing"

	"dlearn/internal/baseline"
	"dlearn/internal/bench"
	"dlearn/internal/coverage"
	"dlearn/internal/datagen"
	"dlearn/internal/logic"
	"dlearn/internal/repair"
	"dlearn/internal/similarity"
)

func quietQuickOptions() bench.Options {
	o := bench.QuickOptions()
	o.Out = io.Discard
	return o
}

func meanF1Table4(rows []bench.Table4Row, system baseline.System) float64 {
	var sum float64
	var n int
	for _, r := range rows {
		if r.System == system {
			sum += r.F1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkTable3DatasetStats regenerates Table 3 (dataset statistics).
func BenchmarkTable3DatasetStats(b *testing.B) {
	o := quietQuickOptions()
	for i := 0; i < b.N; i++ {
		stats, err := bench.RunTable3(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, s := range stats {
			total += s.Tuples
		}
		b.ReportMetric(float64(total), "tuples")
	}
}

// BenchmarkTable4MDLearning regenerates Table 4 (Castor baselines vs DLearn
// over MD-only dirty datasets).
func BenchmarkTable4MDLearning(b *testing.B) {
	o := quietQuickOptions()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable4(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanF1Table4(rows, baseline.DLearn), "dlearn-f1")
		b.ReportMetric(meanF1Table4(rows, baseline.CastorNoMD), "nomd-f1")
	}
}

// BenchmarkTable5CFDLearning regenerates Table 5 (DLearn-CFD vs
// DLearn-Repaired under injected CFD violations).
func BenchmarkTable5CFDLearning(b *testing.B) {
	o := quietQuickOptions()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable5(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		var cfd, rep float64
		var nc, nr int
		for _, r := range rows {
			if r.System == baseline.DLearnCFD {
				cfd += r.F1
				nc++
			} else {
				rep += r.F1
				nr++
			}
		}
		if nc > 0 {
			b.ReportMetric(cfd/float64(nc), "dlearn-cfd-f1")
		}
		if nr > 0 {
			b.ReportMetric(rep/float64(nr), "dlearn-repaired-f1")
		}
	}
}

// BenchmarkTable6ExampleScaling regenerates Table 6 (training-set scaling
// with CFD violations).
func BenchmarkTable6ExampleScaling(b *testing.B) {
	o := quietQuickOptions()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable6(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 0 {
			b.ReportMetric(rows[len(rows)-1].F1, "largest-f1")
		}
	}
}

// BenchmarkTable7IterationDepth regenerates Table 7 (the effect of the
// number of iterations d).
func BenchmarkTable7IterationDepth(b *testing.B) {
	o := quietQuickOptions()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable7(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 1 {
			b.ReportMetric(rows[len(rows)-1].F1-rows[0].F1, "f1-gain-deepest")
		}
	}
}

// BenchmarkFigure1LeftExampleSweep regenerates Figure 1 (left).
func BenchmarkFigure1LeftExampleSweep(b *testing.B) {
	o := quietQuickOptions()
	for i := 0; i < b.N; i++ {
		pts, err := bench.RunFigure1Left(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) > 0 {
			b.ReportMetric(pts[len(pts)-1].F1, "largest-f1")
		}
	}
}

// BenchmarkFigure1MiddleSampleSweep regenerates Figure 1 (middle).
func BenchmarkFigure1MiddleSampleSweep(b *testing.B) {
	o := quietQuickOptions()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFigure1Middle(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1RightSampleSweep regenerates Figure 1 (right).
func BenchmarkFigure1RightSampleSweep(b *testing.B) {
	o := quietQuickOptions()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFigure1Right(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks ----------------------------------------------------

// ablationDataset builds a small dirty dataset reused by the ablations.
func ablationDataset(b *testing.B) *datagen.Dataset {
	b.Helper()
	cfg := datagen.DefaultMoviesConfig()
	cfg.Movies = 80
	cfg.Positives = 10
	cfg.Negatives = 20
	cfg.ViolationRate = 0.1
	ds, err := datagen.Movies(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkAblationRepairExpansion measures repaired-clause expansion of a
// bottom clause with MD and CFD repair literals — the operation the
// repair-literal representation makes lazy instead of materializing repairs
// of the whole database.
func BenchmarkAblationRepairExpansion(b *testing.B) {
	clause := cfdAndMDClause()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := repair.RepairedClausesContext(context.Background(), clause, repair.Options{})
		if len(out) == 0 {
			b.Fatal("no repaired clauses")
		}
	}
}

// BenchmarkAblationMinimalCFDRepair measures the instance-level minimal
// repair used by the DLearn-Repaired baseline (the work DLearn avoids by
// learning over the dirty instance directly).
func BenchmarkAblationMinimalCFDRepair(b *testing.B) {
	ds := ablationDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := repair.MinimalCFDRepair(ds.Problem.Instance, ds.Problem.CFDs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSimilarityBlocking compares the blocked similarity index
// against the brute-force scan it replaces.
func BenchmarkAblationSimilarityBlocking(b *testing.B) {
	ds := ablationDataset(b)
	values := ds.Problem.Instance.DistinctValues("omdb_movies", 1)
	probes := ds.Problem.Instance.DistinctValues("imdb_movies", 1)[:20]
	sim := similarity.Combined(similarity.DefaultOptions())

	b.Run("blocked-index", func(b *testing.B) {
		idx := similarity.NewIndex(values, similarity.DefaultOptions(), 0.55)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range probes {
				idx.TopK(p, 5)
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range probes {
				similarity.BruteForceTopK(p, values, sim, 0.55, 5)
			}
		}
	})
}

// BenchmarkAblationParallelCoverage compares serial and parallel coverage
// testing of a clause over a batch of examples.
func BenchmarkAblationParallelCoverage(b *testing.B) {
	clause := cfdAndMDClause()
	grounds := make([]logic.Clause, 0, 24)
	for i := 0; i < 24; i++ {
		grounds = append(grounds, groundVariantClause(i))
	}
	for _, threads := range []int{1, 8} {
		name := "serial"
		if threads > 1 {
			name = "parallel-8"
		}
		b.Run(name, func(b *testing.B) {
			ev := coverage.NewEvaluator(coverage.Options{Threads: threads})
			exs, err := ev.NewExamples(context.Background(), grounds)
			if err != nil {
				b.Fatalf("NewExamples: %v", err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.CoverageBits(context.Background(), clause, exs)
				ev.CountNegativeExamples(context.Background(), clause, exs)
			}
		})
	}
}

// cfdAndMDClause builds a representative clause carrying both MD and CFD
// repair literals.
func cfdAndMDClause() logic.Clause {
	x, tt, y, z := logic.Var("x"), logic.Var("t"), logic.Var("y"), logic.Var("z")
	vx, vt := logic.Var("vx"), logic.Var("vt")
	u1, u2, c1, c2 := logic.Var("u1"), logic.Var("u2"), logic.Var("c1"), logic.Var("c2")
	simCond := logic.Condition{Op: logic.CondSim, L: x, R: tt}
	cfdCond := []logic.Condition{{Op: logic.CondEq, L: u1, R: u2}, {Op: logic.CondNeq, L: c1, R: c2}}
	return logic.NewClause(
		logic.Rel("highGrossing", x),
		logic.Sim(x, tt),
		logic.RepairInGroup("md_title", "md_title#0", logic.OriginMD, x, vx, simCond),
		logic.RepairInGroup("md_title", "md_title#0", logic.OriginMD, tt, vt, simCond),
		logic.Eq(vx, vt),
		logic.Rel("movies", y, tt, z),
		logic.Rel("mov2genres", y, logic.Const("Drama")),
		logic.Rel("mov2locale", u1, logic.Const("English"), c1),
		logic.Rel("mov2locale", u2, logic.Const("English"), c2),
		logic.InducedEq(u1, u2),
		logic.RepairInGroup("cfd1", "cfd1#rhs1", logic.OriginCFD, c1, c2, cfdCond...),
		logic.RepairInGroup("cfd1", "cfd1#rhs2", logic.OriginCFD, c2, c1, cfdCond...),
	)
}

// groundVariantClause builds ground bottom clauses that differ per index so
// the coverage benchmark exercises both covered and uncovered examples.
func groundVariantClause(i int) logic.Clause {
	title := "Silent Harbor"
	genre := "Drama"
	if i%3 == 0 {
		genre = "Comedy"
	}
	id := logic.Const("m" + string(rune('a'+i%26)))
	full := logic.Const(title + " (2007)")
	short := logic.Const(title)
	w1, w2 := logic.Var("w1"), logic.Var("w2")
	cond := logic.Condition{Op: logic.CondSim, L: short, R: full}
	return logic.NewClause(
		logic.Rel("highGrossing", short),
		logic.Sim(short, full),
		logic.RepairInGroup("md_title", "md_title#0", logic.OriginMD, short, w1, cond),
		logic.RepairInGroup("md_title", "md_title#0", logic.OriginMD, full, w2, cond),
		logic.Eq(w1, w2),
		logic.Rel("movies", id, full, logic.Const("2007")),
		logic.Rel("mov2genres", id, logic.Const(genre)),
		logic.Rel("mov2locale", full, logic.Const("English"), logic.Const("USA")),
		logic.Rel("mov2locale", full, logic.Const("English"), logic.Const("Ireland")),
		logic.RepairInGroup("cfd1", "cfd1#rhs1", logic.OriginCFD, logic.Const("USA"), logic.Const("Ireland"),
			logic.Condition{Op: logic.CondNeq, L: logic.Const("USA"), R: logic.Const("Ireland")}),
		logic.RepairInGroup("cfd1", "cfd1#rhs2", logic.OriginCFD, logic.Const("Ireland"), logic.Const("USA"),
			logic.Condition{Op: logic.CondNeq, L: logic.Const("USA"), R: logic.Const("Ireland")}),
	)
}
