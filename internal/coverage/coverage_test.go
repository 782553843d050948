package coverage

import (
	"context"
	"slices"
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/constraints"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// movieDB builds a small IMDB+BOM-style database with heterogeneous titles,
// a CFD-violating locale relation, and a highGrossing target.
func movieDB() (*relation.Instance, *relation.Relation, []constraints.MD, []constraints.CFD) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("movies",
		relation.Attr("id", "imdb_id"), relation.Attr("title", "imdb_title"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("mov2genres",
		relation.Attr("id", "imdb_id"), relation.Attr("genre", "genre")))
	s.MustAdd(relation.NewRelation("mov2locale",
		relation.Attr("title", "imdb_title"), relation.Attr("language", "language"), relation.Attr("country", "country")))

	in := relation.NewInstance(s)
	in.MustInsert("movies", "m1", "Superbad (2007)", "2007")
	in.MustInsert("movies", "m2", "Zoolander (2001)", "2001")
	in.MustInsert("movies", "m3", "Orphanage (2007)", "2007")
	in.MustInsert("mov2genres", "m1", "comedy")
	in.MustInsert("mov2genres", "m2", "comedy")
	in.MustInsert("mov2genres", "m3", "drama")
	in.MustInsert("mov2locale", "Superbad (2007)", "English", "USA")
	in.MustInsert("mov2locale", "Superbad (2007)", "English", "Ireland")

	target := relation.NewRelation("highGrossing", relation.Attr("title", "bom_title"))
	md := constraints.SimpleMD("md_title", "highGrossing", "title", "movies", "title")
	cfd := constraints.NewCFD("cfd_locale", "mov2locale", []string{"title", "language"}, "country",
		map[string]string{"language": "English"})
	return in, target, []constraints.MD{md}, []constraints.CFD{cfd}
}

func builderFor(useCFDs bool) *bottomclause.Builder {
	in, target, mds, cfds := movieDB()
	cfg := bottomclause.DefaultConfig()
	cfg.UseCFDs = useCFDs
	cfg.SampleSize = 20
	return bottomclause.NewBuilder(in, target, mds, cfds, cfg)
}

// comedyClause is a learned-style clause: high grossing movies are comedies,
// joining the BOM title to the IMDB title through the MD repair literals.
func comedyClause() logic.Clause {
	x, tt, y, z := logic.Var("x"), logic.Var("t"), logic.Var("y"), logic.Var("z")
	vx, vt := logic.Var("vx"), logic.Var("vt")
	cond := logic.Condition{Op: logic.CondSim, L: x, R: tt}
	return logic.NewClause(
		logic.Rel("highGrossing", x),
		logic.Rel("movies", y, tt, z),
		logic.Rel("mov2genres", y, logic.Const("comedy")),
		logic.Sim(x, tt),
		logic.RepairInGroup("md_title", "md_title#c", logic.OriginMD, x, vx, cond),
		logic.RepairInGroup("md_title", "md_title#c", logic.OriginMD, tt, vt, cond),
		logic.Eq(vx, vt),
	)
}

func dramaClause() logic.Clause {
	c := comedyClause()
	for i, l := range c.Body {
		if l.Pred == "mov2genres" {
			c.Body[i].Args[1] = logic.Const("drama")
		}
	}
	return c
}

func eval() *Evaluator { return NewEvaluator(Options{Threads: 2}) }

// examples prepares ground bottom clauses the way the learner does.
func examples(e *Evaluator, grounds ...logic.Clause) []*Example {
	out := make([]*Example, len(grounds))
	for i, g := range grounds {
		out[i] = e.NewExample(context.Background(), g)
	}
	return out
}

func TestCoversPositiveMDOnly(t *testing.T) {
	b := builderFor(false)
	ctx := context.Background()
	e := eval()
	gSuperbad, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	gOrphanage, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Orphanage"))
	if err != nil {
		t.Fatal(err)
	}
	if !e.CoversPositiveExample(ctx, comedyClause(), examples(e, gSuperbad)[0]) {
		t.Error("comedy clause should cover the Superbad example via the MD match")
	}
	if e.CoversPositiveExample(ctx, comedyClause(), examples(e, gOrphanage)[0]) {
		t.Error("comedy clause should not cover the drama movie Orphanage")
	}
	if !e.CoversPositiveExample(ctx, dramaClause(), examples(e, gOrphanage)[0]) {
		t.Error("drama clause should cover the Orphanage example")
	}
}

func TestCoversPositiveWithCFDRepairs(t *testing.T) {
	b := builderFor(true)
	ctx := context.Background()
	e := eval()
	g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	// The full bottom clause of the same example must cover it
	// (Proposition 4.3) even when CFD repair literals are present.
	c, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	if !e.CoversPositiveExample(ctx, c, examples(e, g)[0]) {
		t.Error("bottom clause with CFD repair literals should cover its own example")
	}
	// A plain comedy clause (no CFD literals) still covers it.
	if !e.CoversPositiveExample(ctx, comedyClause(), examples(e, g)[0]) {
		t.Error("comedy clause should cover the Superbad example with CFD-annotated ground clause")
	}
}

// cfdLegClause returns the bottom clause of Superbad and the same clause
// with its first CFD repair literal dropped, which only the CFD leg of the
// Section 4.3 test decides (see TestCoversPositiveCFDLeg).
func cfdLegClause(t *testing.T, b *bottomclause.Builder) (bottom, c logic.Clause) {
	t.Helper()
	bottom, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range bottom.Body {
		if l.IsRepair() && l.Origin == logic.OriginCFD {
			c = bottom.Clone()
			c.Body = slices.Delete(c.Body, i, i+1)
			return bottom, c
		}
	}
	t.Fatal("the Superbad bottom clause has no CFD repair literal")
	return bottom, c
}

// TestCoversPositiveCFDLeg pins the third step of the Section 4.3 test,
// where only the CFD expansions decide: the bottom clause of Superbad with
// one CFD repair literal dropped no longer θ-subsumes the ground clause
// directly (Definition 4.4's closure fails), yet covers it after both sides'
// CFD repairs are applied. The prediction path must reach the same answer
// through an example whose CFD side it prepares only then, and must never
// build the full repair expansion.
func TestCoversPositiveCFDLeg(t *testing.T) {
	ctx := context.Background()
	b := builderFor(true)
	e := eval()
	bottom, c := cfdLegClause(t, b)
	def := &logic.Definition{Target: "highGrossing"}
	def.Add(c, logic.ClauseStats{})
	for _, tc := range []struct {
		title string
		want  bool
	}{{"Superbad", true}, {"Zoolander", false}} {
		g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", tc.title))
		if err != nil {
			t.Fatal(err)
		}
		eager := e.NewExample(ctx, g)
		p := e.newProbe(c)
		if p.subsumes(ctx, p.cand, eager.prep, false) {
			t.Fatalf("%s: the direct probe succeeds; the CFD leg is not what decides", tc.title)
		}
		if got := e.CoversPositiveExample(ctx, c, eager); got != tc.want {
			t.Errorf("%s: prepared example covered = %v, want %v", tc.title, got, tc.want)
		}
		if got := e.DefinitionCoversContext(ctx, def, g); got != tc.want {
			t.Errorf("%s: DefinitionCoversContext = %v, want %v", tc.title, got, tc.want)
		}
		lazy := e.newPositiveExample(g)
		e.DefinitionCoversExample(ctx, def, lazy)
		if lazy.stripped == nil || lazy.repaired != nil {
			t.Errorf("%s: prediction example prepared stripped=%v repaired=%d, want the CFD side only",
				tc.title, lazy.stripped != nil, len(lazy.repaired))
		}
	}
	// A clause the direct probe decides leaves the CFD side unprepared.
	g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	lazy := e.newPositiveExample(g)
	direct := &logic.Definition{Target: "highGrossing"}
	direct.Add(bottom, logic.ClauseStats{})
	if !e.DefinitionCoversExample(ctx, direct, lazy) {
		t.Fatal("the bottom clause must cover its own example (Proposition 4.3)")
	}
	if lazy.stripped != nil || lazy.cfdExp != nil {
		t.Error("a direct-probe cover prepared the example's CFD side")
	}
}

func TestCoversNegative(t *testing.T) {
	b := builderFor(false)
	ctx := context.Background()
	e := eval()
	gZoolander, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Zoolander"))
	if err != nil {
		t.Fatal(err)
	}
	gOrphanage, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Orphanage"))
	if err != nil {
		t.Fatal(err)
	}
	// Zoolander is a comedy, so the comedy clause covers it as a negative
	// example (some repair supports it); Orphanage is not.
	if e.CountNegativeExamples(ctx, comedyClause(), examples(e, gZoolander)) != 1 {
		t.Error("comedy clause should cover the Zoolander negative example")
	}
	if e.CountNegativeExamples(ctx, comedyClause(), examples(e, gOrphanage)) != 0 {
		t.Error("comedy clause should not cover the Orphanage negative example")
	}
}

func TestStripCFDConnected(t *testing.T) {
	b := builderFor(true)
	c, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	stripped := stripCFDConnected(c)
	for _, l := range stripped.Body {
		if l.IsRepair() && l.Origin == logic.OriginCFD {
			t.Fatal("stripCFDConnected left a CFD repair literal")
		}
		if l.Pred == "mov2locale" {
			t.Fatal("stripCFDConnected left a literal connected to a CFD repair literal")
		}
	}
	// The MD machinery must survive.
	var mdRepairs int
	for _, l := range stripped.Body {
		if l.IsRepair() && l.Origin == logic.OriginMD {
			mdRepairs++
		}
	}
	if mdRepairs == 0 {
		t.Fatal("stripCFDConnected removed MD repair literals")
	}
}

func TestScoreAndCounts(t *testing.T) {
	b := builderFor(false)
	ctx := context.Background()
	e := eval()
	var pos, neg []logic.Clause
	for _, title := range []string{"Superbad", "Zoolander"} {
		g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", title))
		if err != nil {
			t.Fatal(err)
		}
		pos = append(pos, g)
	}
	gOrphanage, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Orphanage"))
	if err != nil {
		t.Fatal(err)
	}
	neg = append(neg, gOrphanage)

	posEx, negEx := examples(e, pos...), examples(e, neg...)
	score := fullScore(e, comedyClause(), posEx, negEx)
	if score.PositivesCovered != 2 || score.NegativesCovered != 0 {
		t.Errorf("score = %+v, want 2 positives and 0 negatives", score)
	}
	if score.Value() != 2 {
		t.Errorf("score value = %d", score.Value())
	}
	if covered := indices(e.CoverageBits(ctx, comedyClause(), posEx)); len(covered) != 2 {
		t.Errorf("CoverageBits = %v", covered)
	}
	if e.CountNegativeExamples(ctx, dramaClause(), negEx) != 1 {
		t.Error("drama clause should cover the Orphanage negative example")
	}
}

func TestDefinitionCovers(t *testing.T) {
	b := builderFor(false)
	ctx := context.Background()
	e := eval()
	def := &logic.Definition{Target: "highGrossing"}
	def.Add(comedyClause(), logic.ClauseStats{})
	gSuperbad, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	gOrphanage, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Orphanage"))
	if err != nil {
		t.Fatal(err)
	}
	if !e.DefinitionCoversContext(ctx, def, gSuperbad) {
		t.Error("definition should cover Superbad")
	}
	if e.DefinitionCoversContext(ctx, def, gOrphanage) {
		t.Error("definition should not cover Orphanage")
	}
	def.Add(dramaClause(), logic.ClauseStats{})
	if !e.DefinitionCoversContext(ctx, def, gOrphanage) {
		t.Error("after adding the drama clause the definition should cover Orphanage")
	}
}

func TestEvaluatorThreadsDefault(t *testing.T) {
	if NewEvaluator(Options{}).threads <= 0 {
		t.Fatal("default thread count must be positive")
	}
	if NewEvaluator(Options{Threads: 3}).threads != 3 {
		t.Fatal("explicit thread count not honoured")
	}
}

func TestEmptyGroundSets(t *testing.T) {
	e := eval()
	ctx := context.Background()
	if e.CoverageBits(ctx, comedyClause(), nil).Any() || e.CountNegativeExamples(ctx, comedyClause(), nil) != 0 {
		t.Fatal("empty example sets must count zero")
	}
}
