package bottomclause

import (
	"context"
	"testing"

	"dlearn/internal/constraints"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
	"dlearn/internal/repair"
	"dlearn/internal/subsumption"
)

// paperDatabase builds the example movie database of Table 2 plus a BOM-style
// relation so the MD of Example 4.1 applies.
func paperDatabase() (*relation.Instance, *relation.Relation, []constraints.MD, []constraints.CFD) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("movies",
		relation.Attr("id", "imdb_id"), relation.Attr("title", "imdb_title"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("mov2genres",
		relation.Attr("id", "imdb_id"), relation.Attr("genre", "genre")))
	s.MustAdd(relation.NewRelation("mov2countries",
		relation.Attr("id", "imdb_id"), relation.Attr("cid", "country_id")))
	s.MustAdd(relation.NewRelation("countries",
		relation.Attr("cid", "country_id"), relation.Attr("name", "country")))
	s.MustAdd(relation.NewRelation("englishMovies",
		relation.Attr("id", "imdb_id")))
	s.MustAdd(relation.NewRelation("mov2releasedate",
		relation.Attr("id", "imdb_id"), relation.Attr("month", "month"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("mov2locale",
		relation.Attr("title", "imdb_title"), relation.Attr("language", "language"), relation.Attr("country", "country")))

	in := relation.NewInstance(s)
	in.MustInsert("movies", "m1", "Superbad (2007)", "2007")
	in.MustInsert("movies", "m2", "Zoolander (2001)", "2001")
	in.MustInsert("movies", "m3", "Orphanage (2007)", "2007")
	in.MustInsert("mov2genres", "m1", "comedy")
	in.MustInsert("mov2genres", "m2", "comedy")
	in.MustInsert("mov2genres", "m3", "drama")
	in.MustInsert("mov2countries", "m1", "c1")
	in.MustInsert("mov2countries", "m2", "c1")
	in.MustInsert("mov2countries", "m3", "c2")
	in.MustInsert("countries", "c1", "USA")
	in.MustInsert("countries", "c2", "Spain")
	in.MustInsert("englishMovies", "m1")
	in.MustInsert("englishMovies", "m2")
	in.MustInsert("mov2releasedate", "m1", "August", "2007")
	in.MustInsert("mov2releasedate", "m2", "September", "2001")
	// CFD violation material: same title + English, two countries.
	in.MustInsert("mov2locale", "Superbad (2007)", "English", "USA")
	in.MustInsert("mov2locale", "Superbad (2007)", "English", "Ireland")

	// Target relation: highGrossing(title) with BOM-style titles.
	target := relation.NewRelation("highGrossing", relation.Attr("title", "bom_title"))

	md := constraints.SimpleMD("md_title", "highGrossing", "title", "movies", "title")
	cfd := constraints.NewCFD("cfd_locale", "mov2locale", []string{"title", "language"}, "country",
		map[string]string{"language": "English"})
	return in, target, []constraints.MD{md}, []constraints.CFD{cfd}
}

func defaultBuilder(mode MDMode, useCFDs bool) (*Builder, relation.Tuple) {
	in, target, mds, cfds := paperDatabase()
	cfg := DefaultConfig()
	cfg.MDMode = mode
	cfg.UseCFDs = useCFDs
	cfg.Iterations = 3
	cfg.SampleSize = 20
	b := NewBuilder(in, target, mds, cfds, cfg)
	return b, relation.NewTuple("highGrossing", "Superbad")
}

func bodyPreds(c logic.Clause) map[string]int {
	out := make(map[string]int)
	for _, l := range c.Body {
		if l.IsRelation() {
			out[l.Pred]++
		}
	}
	return out
}

func TestBottomClauseExample41(t *testing.T) {
	b, e := defaultBuilder(MDSimilarity, false)
	c, err := b.BottomClause(e)
	if err != nil {
		t.Fatal(err)
	}
	preds := bodyPreds(c)
	// The relevant tuples of Example 4.1: movies, mov2genres, mov2countries,
	// countries, englishMovies, mov2releasedate for m1 must all be reached.
	for _, want := range []string{"movies", "mov2genres", "mov2countries", "countries", "englishMovies", "mov2releasedate"} {
		if preds[want] == 0 {
			t.Errorf("bottom clause misses relation %s: %v", want, c)
		}
	}
	if c.Head.Pred != "highGrossing" || len(c.Head.Args) != 1 || !c.Head.Args[0].IsVar() {
		t.Errorf("head should be highGrossing(var): %v", c.Head)
	}
	// The approximate title match must contribute a similarity literal and
	// an MD repair group.
	simCount, repairCount := 0, 0
	for _, l := range c.Body {
		if l.Kind == logic.SimilarityLit {
			simCount++
		}
		if l.IsRepair() && l.Origin == logic.OriginMD {
			repairCount++
		}
	}
	if simCount == 0 || repairCount < 2 {
		t.Errorf("expected similarity and MD repair literals, got sim=%d repair=%d", simCount, repairCount)
	}
}

func TestBottomClauseCoversItsExample(t *testing.T) {
	// Proposition 4.3: the bottom clause covers the example it was built
	// for, i.e. it θ-subsumes its own ground bottom clause — both in the
	// MD-only configuration and with CFD repair literals.
	for _, useCFDs := range []bool{false, true} {
		b, e := defaultBuilder(MDSimilarity, useCFDs)
		c, err := b.BottomClause(e)
		if err != nil {
			t.Fatal(err)
		}
		g, err := b.GroundBottomClause(e)
		if err != nil {
			t.Fatal(err)
		}
		ch := subsumption.New(subsumption.Options{})
		if ok, _, _ := subsumption.CompileCandidate(c).Probe(context.Background(), ch.Prepare(g), false); !ok {
			t.Fatalf("bottom clause (useCFDs=%v) does not cover its own example:\nC = %v\nG = %v", useCFDs, c, g)
		}
	}
}

func TestBottomClauseNoMDMode(t *testing.T) {
	b, e := defaultBuilder(MDIgnore, false)
	c, err := b.BottomClause(e)
	if err != nil {
		t.Fatal(err)
	}
	// Without MDs the BOM-style title cannot reach the IMDB-side relations.
	preds := bodyPreds(c)
	if len(preds) != 0 {
		t.Errorf("Castor-NoMD should find no connected tuples for a heterogeneous title, got %v", preds)
	}
	for _, l := range c.Body {
		if l.Kind == logic.SimilarityLit || l.IsRepair() {
			t.Errorf("MDIgnore must not add similarity or repair literals: %v", l)
		}
	}
}

func TestBottomClauseExactMDMode(t *testing.T) {
	in, target, mds, cfds := paperDatabase()
	cfg := DefaultConfig()
	cfg.MDMode = MDExact
	cfg.UseCFDs = false
	cfg.SampleSize = 20
	b := NewBuilder(in, target, mds, cfds, cfg)

	// A heterogeneous title finds nothing through exact joins...
	c, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	if got := bodyPreds(c); len(got) != 0 {
		t.Errorf("exact-join mode should not reach reformatted titles, got %v", got)
	}
	// ...but an exactly matching title does.
	c2, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad (2007)"))
	if err != nil {
		t.Fatal(err)
	}
	if got := bodyPreds(c2); got["movies"] == 0 {
		t.Errorf("exact-join mode should reach exactly matching titles, got %v", got)
	}
	// Exact mode never introduces similarity or repair literals.
	for _, l := range c2.Body {
		if l.Kind == logic.SimilarityLit || l.IsRepair() {
			t.Errorf("MDExact must not add similarity or repair literals: %v", l)
		}
	}
}

func TestGroundBottomClauseKeepsConstants(t *testing.T) {
	// Without CFDs the ground bottom clause is fully ground. (With CFDs the
	// occurrences split for a violation become variables tied to their
	// constant with equality literals, per Section 3.2.)
	b, e := defaultBuilder(MDSimilarity, false)
	g, err := b.GroundBottomClause(e)
	if err != nil {
		t.Fatal(err)
	}
	if g.Head.Args[0] != logic.Const("Superbad") {
		t.Errorf("ground head should keep the example constant, got %v", g.Head)
	}
	for _, l := range g.Body {
		if !l.IsRelation() {
			continue
		}
		for _, a := range l.Args {
			if a.IsVar() {
				t.Fatalf("ground bottom clause contains a variable in a relation literal: %v", l)
			}
		}
	}
	// With CFDs, split occurrences must be anchored to their constant.
	b2, _ := defaultBuilder(MDSimilarity, true)
	g2, err := b2.GroundBottomClause(e)
	if err != nil {
		t.Fatal(err)
	}
	anchored := 0
	for _, l := range g2.Body {
		if l.Kind == logic.EqualityLit && l.Args[0].IsVar() != l.Args[1].IsVar() {
			anchored++
		}
	}
	if anchored < 2 {
		t.Errorf("split occurrences should be anchored to constants with equality literals, found %d", anchored)
	}
}

func TestBottomClauseCFDRepairLiterals(t *testing.T) {
	b, e := defaultBuilder(MDSimilarity, true)
	c, err := b.BottomClause(e)
	if err != nil {
		t.Fatal(err)
	}
	var cfdRepairs, inducedEq int
	for _, l := range c.Body {
		if l.IsRepair() && l.Origin == logic.OriginCFD {
			cfdRepairs++
		}
		if l.Kind == logic.EqualityLit && l.Induced {
			inducedEq++
		}
	}
	if cfdRepairs != 4 {
		t.Errorf("one CFD violation should add 4 alternative repair literals, got %d", cfdRepairs)
	}
	if inducedEq != 3 {
		t.Errorf("splitting both LHS occurrences should add 3 induced equalities, got %d", inducedEq)
	}
	// Expanding the bottom clause must produce only CFD-repaired variants:
	// no repaired clause may keep two mov2locale literals that agree on the
	// (unsplit) title variable but disagree on country.
	repaired, _ := repair.RepairedClausesContext(context.Background(), c, repair.Options{})
	for _, rc := range repaired {
		for _, l := range rc.Body {
			if l.IsRepair() {
				t.Fatalf("unrepaired clause returned: %v", rc)
			}
		}
	}
	// Without CFDs, no CFD repair literals are added.
	b2, _ := defaultBuilder(MDSimilarity, false)
	c2, err := b2.BottomClause(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range c2.Body {
		if l.IsRepair() && l.Origin == logic.OriginCFD {
			t.Fatalf("UseCFDs=false must not add CFD repair literals")
		}
	}
}

func TestBottomClauseSampleSizeCap(t *testing.T) {
	in, target, mds, cfds := paperDatabase()
	cfg := DefaultConfig()
	cfg.SampleSize = 1
	cfg.MDMode = MDSimilarity
	b := NewBuilder(in, target, mds, cfds, cfg)
	c, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	for pred, n := range bodyPreds(c) {
		if n > 1 {
			t.Errorf("sample size 1 exceeded for relation %s: %d literals", pred, n)
		}
	}
}

func TestBottomClauseDeterministic(t *testing.T) {
	b1, e := defaultBuilder(MDSimilarity, true)
	b2, _ := defaultBuilder(MDSimilarity, true)
	c1, err := b1.BottomClause(e)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := b2.BottomClause(e)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Key() != c2.Key() {
		t.Errorf("bottom-clause construction should be deterministic:\n%v\n%v", c1, c2)
	}
}

func TestBottomClauseIterationDepth(t *testing.T) {
	// With d=1 only directly connected tuples (via the MD similarity match)
	// are reached; countries(c1, USA) needs a second hop via mov2countries.
	in, target, mds, cfds := paperDatabase()
	cfg := DefaultConfig()
	cfg.Iterations = 1
	cfg.SampleSize = 20
	b := NewBuilder(in, target, mds, cfds, cfg)
	c, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	preds := bodyPreds(c)
	if preds["countries"] != 0 {
		t.Errorf("countries should not be reachable with d=1, got %v", preds)
	}
	cfg.Iterations = 3
	b3 := NewBuilder(in, target, mds, cfds, cfg)
	c3, err := b3.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	if bodyPreds(c3)["countries"] == 0 {
		t.Errorf("countries should be reachable with d=3, got %v", bodyPreds(c3))
	}
}

func TestBottomClauseArityMismatch(t *testing.T) {
	b, _ := defaultBuilder(MDSimilarity, false)
	if _, err := b.BottomClause(relation.NewTuple("highGrossing", "a", "b")); err == nil {
		t.Fatal("example arity mismatch must be rejected")
	}
}

func TestBottomClauseHeadConnectedAfterPruning(t *testing.T) {
	// Every literal of the bottom clause must be head-connected once pruned;
	// construction should not produce unreachable islands.
	b, e := defaultBuilder(MDSimilarity, true)
	c, err := b.BottomClause(e)
	if err != nil {
		t.Fatal(err)
	}
	pruned := c.PruneUnconnected()
	if got, want := len(pruned.Body), len(c.Body); got != want {
		t.Errorf("bottom clause contains %d unconnected literals", want-got)
	}
}
