package coverage

import (
	"context"
	"fmt"
	"os"
	"slices"
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/constraints"
	"dlearn/internal/logic"
	"dlearn/internal/persist"
	"dlearn/internal/relation"
	"dlearn/internal/subsumption"
)

// benchDB builds a movies database large enough that candidate scoring, not
// setup, dominates: nMovies movies cycling through genres, each with locale
// rows that exercise the CFD machinery on a fraction of the examples.
func benchDB(nMovies int) (*relation.Instance, *relation.Relation, []constraints.MD, []constraints.CFD) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("movies",
		relation.Attr("id", "imdb_id"), relation.Attr("title", "imdb_title"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("mov2genres",
		relation.Attr("id", "imdb_id"), relation.Attr("genre", "genre")))
	s.MustAdd(relation.NewRelation("mov2locale",
		relation.Attr("title", "imdb_title"), relation.Attr("language", "language"), relation.Attr("country", "country")))

	genres := []string{"comedy", "drama", "action", "horror"}
	in := relation.NewInstance(s)
	for i := 0; i < nMovies; i++ {
		id := fmt.Sprintf("m%03d", i)
		title := fmt.Sprintf("%s (%d)", benchTitle(i), 2000+i%20)
		in.MustInsert("movies", id, title, fmt.Sprintf("%d", 2000+i%20))
		in.MustInsert("mov2genres", id, genres[i%len(genres)])
		in.MustInsert("mov2locale", title, "English", "USA")
		if i%5 == 0 {
			// A second country for the same (title, language) violates the CFD.
			in.MustInsert("mov2locale", title, "English", "Ireland")
		}
	}
	target := relation.NewRelation("highGrossing", relation.Attr("title", "bom_title"))
	md := constraints.SimpleMD("md_title", "highGrossing", "title", "movies", "title")
	cfd := constraints.NewCFD("cfd_locale", "mov2locale", []string{"title", "language"}, "country",
		map[string]string{"language": "English"})
	return in, target, []constraints.MD{md}, []constraints.CFD{cfd}
}

// benchTitle is the clean (BOM-side) title of movie i; the movies relation
// stores the dirty variant with a year suffix, so coverage always goes
// through the MD repair machinery.
func benchTitle(i int) string {
	return fmt.Sprintf("Benchmark Film %03d", i)
}

// benchCandidates are learned-style clauses of varying selectivity: genre
// variants that cover disjoint example subsets, an over-general clause
// without the genre test, and a clause with an extra locale join.
func benchCandidates() []logic.Clause {
	base := func(genre string) logic.Clause {
		x, tt, y, z := logic.Var("x"), logic.Var("t"), logic.Var("y"), logic.Var("z")
		vx, vt := logic.Var("vx"), logic.Var("vt")
		cond := logic.Condition{Op: logic.CondSim, L: x, R: tt}
		return logic.NewClause(
			logic.Rel("highGrossing", x),
			logic.Rel("movies", y, tt, z),
			logic.Rel("mov2genres", y, logic.Const(genre)),
			logic.Sim(x, tt),
			logic.RepairInGroup("md_title", "md_title#c", logic.OriginMD, x, vx, cond),
			logic.RepairInGroup("md_title", "md_title#c", logic.OriginMD, tt, vt, cond),
			logic.Eq(vx, vt),
		)
	}
	noGenre := base("comedy")
	noGenre.Body = slices.Delete(noGenre.Body, 1, 2) // drop mov2genres: covers everything
	withLocale := base("comedy")
	withLocale.Body = append(withLocale.Body,
		logic.Rel("mov2locale", logic.Var("t"), logic.Const("English"), logic.Var("c")))
	return []logic.Clause{
		base("comedy"), base("drama"), base("action"), base("horror"),
		noGenre, withLocale,
	}
}

// benchExamples grounds nPos positive (comedy) and nNeg negative (other
// genre) examples against the bench database.
func benchExamples(tb testing.TB, nMovies, nPos, nNeg int) (*bottomclause.Builder, []logic.Clause, []logic.Clause) {
	tb.Helper()
	in, target, mds, cfds := benchDB(nMovies)
	cfg := bottomclause.DefaultConfig()
	cfg.UseCFDs = true
	cfg.SampleSize = 20
	b := bottomclause.NewBuilder(in, target, mds, cfds, cfg)
	var pos, neg []logic.Clause
	for i := 0; len(pos) < nPos && i < nMovies; i++ {
		if i%4 == 0 { // comedies
			g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", benchTitle(i)))
			if err != nil {
				tb.Fatal(err)
			}
			pos = append(pos, g)
		}
	}
	for i := 0; len(neg) < nNeg && i < nMovies; i++ {
		if i%4 == 1 { // dramas
			g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", benchTitle(i)))
			if err != nil {
				tb.Fatal(err)
			}
			neg = append(neg, g)
		}
	}
	if len(pos) < nPos || len(neg) < nNeg {
		tb.Fatalf("bench dataset too small: got %d/%d positives, %d/%d negatives", len(pos), nPos, len(neg), nNeg)
	}
	return b, pos, neg
}

// BenchmarkFullScore is the regression benchmark for the hot path of the
// covering search: scoring a set of candidate clauses over prepared examples
// in full, as the learner's acceptance test does (the positive coverage
// bitmap and the negative count). It reports its throughput as covertests/s.
func BenchmarkFullScore(b *testing.B) {
	_, posG, negG := benchExamples(b, 120, 16, 16)
	cands := benchCandidates()
	for _, threads := range []int{1, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			e := NewEvaluator(Options{Threads: threads})
			ctx := context.Background()
			posEx := mustExamples(b, e, posG)
			negEx := mustExamples(b, e, negG)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cands {
					e.CoverageBits(ctx, c, posEx)
					e.CountNegativeExamples(ctx, c, negEx)
				}
			}
			scores := float64(b.N) * float64(len(cands)) * float64(len(posEx)+len(negEx))
			b.ReportMetric(scores/b.Elapsed().Seconds(), "covertests/s")
		})
	}
}

// BenchmarkLoadOrPrepareExamples measures the two starts of the snapshot
// store. A cold start prepares every example fresh and writes the snapshot
// back; a warm start loads, decodes and restores it into a fresh evaluator.
// The second instance holds ten times the movies behind the same examples,
// so the pair shows how both starts and the snapshot grow with the database.
func BenchmarkLoadOrPrepareExamples(b *testing.B) {
	ctx := context.Background()
	key := snapshotTestKey()
	for _, movies := range []int{120, 1200} {
		_, posG, negG := benchExamples(b, movies, 16, 16)
		b.Run(fmt.Sprintf("movies=%d/cold", movies), func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				_, _, out, err := NewEvaluator(Options{}).LoadOrPrepareExamples(ctx, persist.NewDirStore(dir), key, posG, negG)
				if err != nil || out.Hit || out.WriteErr != nil {
					b.Fatalf("cold start: hit=%v err=%v write err=%v", out.Hit, err, out.WriteErr)
				}
				b.StopTimer()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("movies=%d/warm", movies), func(b *testing.B) {
			store := persist.NewDirStore(b.TempDir())
			if _, _, _, err := NewEvaluator(Options{}).LoadOrPrepareExamples(ctx, store, key, posG, negG); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var bytes int
			for i := 0; i < b.N; i++ {
				_, _, out, err := NewEvaluator(Options{}).LoadOrPrepareExamples(ctx, store, key, posG, negG)
				if err != nil || !out.Hit {
					b.Fatalf("warm start missed the snapshot store: %s (err %v)", out.Reason, err)
				}
				bytes = out.Bytes
			}
			b.ReportMetric(float64(bytes), "snapshot_bytes")
		})
	}
}

// BenchmarkSubsumesPrepared measures repeated θ-subsumption of candidate
// clauses against one prepared ground bottom clause — the innermost loop of
// every coverage test — in its two modes: recompiling the candidate per
// probe (one-shot tests) and probing through a reusable CompiledCandidate
// (batch scoring).
func BenchmarkSubsumesPrepared(b *testing.B) {
	e := NewEvaluator(Options{Threads: 1})
	_, posG, _ := benchExamples(b, 60, 4, 1)
	prep := e.checker.Prepare(posG[0])
	cands := benchCandidates()
	ctx := context.Background()
	b.Run("recompile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				subsumption.CompileCandidate(c).Probe(ctx, prep, false)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		compiled := make([]*subsumption.CompiledCandidate, len(cands))
		for i, c := range cands {
			compiled[i] = subsumption.CompileCandidate(c)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cc := range compiled {
				cc.Probe(ctx, prep, false)
			}
		}
	})
}
