package repair

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"dlearn/internal/constraints"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
	"dlearn/internal/similarity"
)

// --- clause-level repairs -------------------------------------------------

// countBody returns the number of body literals of c for which is holds.
func countBody(c logic.Clause, is func(logic.Literal) bool) int {
	n := 0
	for _, l := range c.Body {
		if is(l) {
			n++
		}
	}
	return n
}

// paperMDClause reproduces the clause of Example 3.2.
func paperMDClause() logic.Clause {
	x, t, y, z, vx, vt := logic.Var("x"), logic.Var("t"), logic.Var("y"), logic.Var("z"), logic.Var("vx"), logic.Var("vt")
	cond := logic.Condition{Op: logic.CondSim, L: x, R: t}
	return logic.NewClause(
		logic.Rel("highGrossing", x),
		logic.Rel("movies", y, t, z),
		logic.Rel("mov2genres", y, logic.Const("comedy")),
		logic.Rel("highBudgetMovies", x),
		logic.Sim(x, t),
		logic.RepairInGroup("md1", "md1#0", logic.OriginMD, x, vx, cond),
		logic.RepairInGroup("md1", "md1#0", logic.OriginMD, t, vt, cond),
		logic.Eq(vx, vt),
	)
}

func TestRepairedClausesExample32(t *testing.T) {
	got, _ := RepairedClausesContext(context.Background(), paperMDClause(), Options{})
	if len(got) != 1 {
		t.Fatalf("Example 3.2 should yield exactly one repaired clause, got %d:\n%v", len(got), got)
	}
	rc := got[0]
	if countBody(rc, logic.Literal.IsRepair) != 0 {
		t.Fatal("repaired clause still contains repair literals")
	}
	if rc.Head.Args[0] != logic.Var("vx") {
		t.Errorf("head should use the replacement variable vx, got %v", rc.Head.Args[0])
	}
	var sawMovies, sawEq, sawSim bool
	for _, l := range rc.Body {
		switch {
		case l.Pred == "movies":
			sawMovies = true
			if l.Args[1] != logic.Var("vt") {
				t.Errorf("movies title argument should be vt, got %v", l.Args[1])
			}
		case l.Kind == logic.EqualityLit:
			sawEq = true
		case l.Kind == logic.SimilarityLit:
			sawSim = true
		}
	}
	if !sawMovies || !sawEq {
		t.Errorf("repaired clause missing expected literals: %v", rc)
	}
	if sawSim {
		t.Errorf("similarity literal should be dropped after the MD repair: %v", rc)
	}
}

// example33Clause reproduces the clause of Example 3.3: two MDs both match
// the head variable x, so the two repair orders give two repaired clauses.
func example33Clause() logic.Clause {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	vx, vy := logic.Var("vx"), logic.Var("vy")
	ux, vz := logic.Var("ux"), logic.Var("vz")
	condXY := logic.Condition{Op: logic.CondSim, L: x, R: y}
	condXZ := logic.Condition{Op: logic.CondSim, L: x, R: z}
	return logic.NewClause(
		logic.Rel("T", x),
		logic.Rel("R", y),
		logic.Sim(x, y),
		logic.RepairInGroup("md1", "md1#0", logic.OriginMD, x, vx, condXY),
		logic.RepairInGroup("md1", "md1#0", logic.OriginMD, y, vy, condXY),
		logic.Eq(vx, vy),
		logic.Rel("S", z),
		logic.Sim(x, z),
		logic.RepairInGroup("md2", "md2#0", logic.OriginMD, x, ux, condXZ),
		logic.RepairInGroup("md2", "md2#0", logic.OriginMD, z, vz, condXZ),
		logic.Eq(ux, vz),
	)
}

func TestRepairedClausesExample33TwoRepairs(t *testing.T) {
	got, _ := RepairedClausesContext(context.Background(), example33Clause(), Options{})
	if len(got) != 2 {
		t.Fatalf("Example 3.3 should yield two repaired clauses, got %d:\n%v", len(got), got)
	}
	heads := map[string]bool{}
	for _, rc := range got {
		if countBody(rc, logic.Literal.IsRepair) != 0 {
			t.Fatal("unrepaired clause returned")
		}
		heads[rc.Head.Args[0].String()] = true
	}
	if !heads["vx"] || !heads["ux"] {
		t.Errorf("expected one repair via vx and one via ux, got heads %v", heads)
	}
	// In the vx-repair, S(z) must keep its original variable; in the
	// ux-repair, R(y) must keep its original variable (H'1 and H'2).
	for _, rc := range got {
		for _, l := range rc.Body {
			if rc.Head.Args[0] == logic.Var("vx") && l.Pred == "S" && l.Args[0] != logic.Var("z") {
				t.Errorf("H'1 should keep S(z): %v", rc)
			}
			if rc.Head.Args[0] == logic.Var("ux") && l.Pred == "R" && l.Args[0] != logic.Var("y") {
				t.Errorf("H'2 should keep R(y): %v", rc)
			}
		}
	}
}

// cfdViolationClause reproduces Example 3.1: a CFD violation inside a clause
// with the four alternative repair groups (two LHS modifications with fresh
// variables, two RHS unifications).
func cfdViolationClause() logic.Clause {
	x1, x2, z, tt := logic.Var("x1"), logic.Var("x2"), logic.Var("z"), logic.Var("t")
	vx1, vx2 := logic.Var("vx1"), logic.Var("vx2")
	eng := logic.Const("English")
	cond := []logic.Condition{
		{Op: logic.CondEq, L: x1, R: x2},
		{Op: logic.CondNeq, L: z, R: tt},
	}
	return logic.NewClause(
		logic.Rel("highGrossing", x1),
		logic.Rel("mov2locale", x1, eng, z),
		logic.Rel("mov2locale", x2, eng, tt),
		logic.InducedEq(x1, x2),
		logic.RepairInGroup("cfd1", "cfd1#lhs1", logic.OriginCFD, x1, vx1, cond...),
		logic.Neq(vx1, x2),
		logic.RepairInGroup("cfd1", "cfd1#lhs2", logic.OriginCFD, x2, vx2, cond...),
		logic.Neq(vx2, x1),
		logic.RepairInGroup("cfd1", "cfd1#rhs1", logic.OriginCFD, z, tt, cond...),
		logic.RepairInGroup("cfd1", "cfd1#rhs2", logic.OriginCFD, tt, z, cond...),
	)
}

func TestRepairedClausesCFDViolationAlternatives(t *testing.T) {
	got, _ := RepairedClausesContext(context.Background(), cfdViolationClause(), Options{})
	if len(got) < 3 {
		t.Fatalf("CFD violation should yield at least 3 distinct repairs, got %d:\n%v", len(got), got)
	}
	sawUnifiedCountry := false
	sawBrokenLHS := false
	for _, rc := range got {
		if countBody(rc, logic.Literal.IsRepair) != 0 {
			t.Fatal("unrepaired clause returned")
		}
		// Count how many mov2locale literals mention z vs t after repair.
		countryVars := map[string]bool{}
		for _, l := range rc.Body {
			if l.Pred == "mov2locale" {
				countryVars[l.Args[2].String()] = true
			}
		}
		if len(countryVars) == 1 {
			sawUnifiedCountry = true
		}
		for _, l := range rc.Body {
			if l.Kind == logic.InequalityLit {
				sawBrokenLHS = true
			}
		}
	}
	if !sawUnifiedCountry {
		t.Error("expected a repair that unifies the two country variables")
	}
	if !sawBrokenLHS {
		t.Error("expected a repair that breaks the LHS agreement with an inequality restriction")
	}
	// No repaired clause may still contain the violation pattern: two
	// mov2locale literals that share the same title variable but different
	// country variables.
	for _, rc := range got {
		var titles, countries []string
		for _, l := range rc.Body {
			if l.Pred == "mov2locale" {
				titles = append(titles, l.Args[0].String())
				countries = append(countries, l.Args[2].String())
			}
		}
		if len(titles) == 2 && titles[0] == titles[1] && countries[0] != countries[1] {
			// Only a violation if no inequality was introduced on the titles
			// and the countries remain distinct — i.e. nothing was repaired.
			t.Errorf("repaired clause still violates the CFD: %v", rc)
		}
	}
}

func TestRepairedClausesNoRepairLiterals(t *testing.T) {
	c := logic.NewClause(logic.Rel("p", logic.Var("x")), logic.Rel("q", logic.Var("x")))
	got, _ := RepairedClausesContext(context.Background(), c, Options{})
	if len(got) != 1 || !got[0].Equal(c) {
		t.Fatalf("clause without repair literals should repair to itself: %v", got)
	}
}

func TestRepairedClausesFalseConditionDropsGroup(t *testing.T) {
	// Condition requires x ~ t but there is no similarity literal, so the
	// repair group is dropped without being applied.
	x, tt, vx := logic.Var("x"), logic.Var("t"), logic.Var("vx")
	c := logic.NewClause(
		logic.Rel("p", x),
		logic.Rel("q", x, tt),
		logic.RepairInGroup("md1", "md1#0", logic.OriginMD, x, vx,
			logic.Condition{Op: logic.CondSim, L: x, R: tt}),
	)
	got, _ := RepairedClausesContext(context.Background(), c, Options{})
	if len(got) != 1 {
		t.Fatalf("expected a single repaired clause, got %d", len(got))
	}
	if got[0].Head.Args[0] != logic.Var("x") {
		t.Errorf("head variable should be unchanged when the condition fails: %v", got[0])
	}
}

func TestRepairedClausesRespectsCap(t *testing.T) {
	got, cut := RepairedClausesContext(context.Background(), example33Clause(), Options{MaxClauses: 1})
	if len(got) != 1 || !cut {
		t.Fatalf("MaxClauses=1 should cap the result and report the cut, got %d clauses, cut=%v", len(got), cut)
	}
	if got, cut := RepairedClausesContext(context.Background(), example33Clause(), Options{}); len(got) != 2 || cut {
		t.Fatalf("the uncapped expansion yields %d clauses, cut=%v; want 2 and no cut", len(got), cut)
	}
}

// Property: repaired clauses never contain repair literals and never exceed
// the input clause's relation-literal count.
func TestPropertyRepairedClausesAreRepaired(t *testing.T) {
	inputs := []logic.Clause{paperMDClause(), example33Clause(), cfdViolationClause()}
	for _, c := range inputs {
		repaired, _ := RepairedClausesContext(context.Background(), c, Options{})
		for _, rc := range repaired {
			if countBody(rc, logic.Literal.IsRepair) != 0 {
				t.Fatalf("repaired clause contains repair literals: %v", rc)
			}
			if countBody(rc, logic.Literal.IsRelation) > countBody(c, logic.Literal.IsRelation) {
				t.Fatalf("repair increased the number of relation literals: %v", rc)
			}
		}
	}
}

// --- instance-level repairs -----------------------------------------------

func moviesSchema() *relation.Schema {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("movies",
		relation.Attr("id", "imdb_id"), relation.Attr("title", "title"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("highBudgetMovies", relation.Attr("title", "title")))
	return s
}

func titleMD() constraints.MD {
	return constraints.SimpleMD("md1", "movies", "title", "highBudgetMovies", "title")
}

func TestMinimalCFDRepair(t *testing.T) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("mov2locale",
		relation.Attr("title", "title"), relation.Attr("language", "language"), relation.Attr("country", "country")))
	in := relation.NewInstance(s)
	in.MustInsert("mov2locale", "Bait", "English", "USA")
	in.MustInsert("mov2locale", "Bait", "English", "Ireland")
	in.MustInsert("mov2locale", "Bait", "English", "USA")
	in.MustInsert("mov2locale", "Rec", "Spanish", "Spain")
	cfd := constraints.NewCFD("cfd1", "mov2locale", []string{"title", "language"}, "country",
		map[string]string{"language": "English"})
	repaired, mods, err := MinimalCFDRepair(in, []constraints.CFD{cfd})
	if err != nil {
		t.Fatal(err)
	}
	if mods != 1 {
		t.Errorf("minimal repair should modify exactly 1 field (the minority value), modified %d", mods)
	}
	if !cfd.Satisfied(repaired) {
		t.Error("repaired instance still violates the CFD")
	}
	// Majority value USA should win.
	for _, tp := range repaired.Tuples("mov2locale") {
		if tp.Values[0] == "Bait" && tp.Values[2] != "USA" {
			t.Errorf("expected country USA after repair, got %s", tp.Values[2])
		}
	}
	// Original untouched.
	if in.Tuples("mov2locale")[1].Values[2] != "Ireland" {
		t.Error("MinimalCFDRepair must not modify its input")
	}
}

func TestMinimalCFDRepairConstantPattern(t *testing.T) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("r", relation.Attr("A", "a"), relation.Attr("B", "b")))
	in := relation.NewInstance(s)
	in.MustInsert("r", "a1", "wrong")
	cfd := constraints.NewCFD("c", "r", []string{"A"}, "B", map[string]string{"A": "a1", "B": "b1"})
	repaired, mods, err := MinimalCFDRepair(in, []constraints.CFD{cfd})
	if err != nil {
		t.Fatal(err)
	}
	if mods != 1 || repaired.Tuples("r")[0].Values[1] != "b1" {
		t.Errorf("constant RHS pattern should force the value b1, got %v (mods %d)", repaired.Tuples("r")[0], mods)
	}
}

func TestMinimalCFDRepairCascade(t *testing.T) {
	// Repairing B can introduce a violation of B -> C, which must also be
	// repaired (Section 4.1's cascading example).
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("r",
		relation.Attr("A", "a"), relation.Attr("B", "b"), relation.Attr("C", "c")))
	in := relation.NewInstance(s)
	in.MustInsert("r", "a1", "b1", "c1")
	in.MustInsert("r", "a1", "b2", "c2")
	fd1 := constraints.FD("fd1", "r", []string{"A"}, "B")
	fd2 := constraints.FD("fd2", "r", []string{"B"}, "C")
	repaired, _, err := MinimalCFDRepair(in, []constraints.CFD{fd1, fd2})
	if err != nil {
		t.Fatal(err)
	}
	if !fd1.Satisfied(repaired) || !fd2.Satisfied(repaired) {
		t.Error("cascading repair left violations")
	}
}

func TestResolveBestMatch(t *testing.T) {
	in := relation.NewInstance(moviesSchema())
	in.MustInsert("movies", "m1", "Superbad (2007)", "2007")
	in.MustInsert("movies", "m2", "Zoolander (2001)", "2001")
	in.MustInsert("highBudgetMovies", "Superbad")
	in.MustInsert("highBudgetMovies", "Unrelated Thing")
	out := ResolveBestMatch(in, []constraints.MD{titleMD()}, similarity.DefaultOptions(), 0.55)
	var resolved bool
	for _, tp := range out.Tuples("highBudgetMovies") {
		if tp.Values[0] == "Superbad (2007)" {
			resolved = true
		}
		if tp.Values[0] == "Superbad" {
			t.Error("similar title should have been rewritten to its best match")
		}
	}
	if !resolved {
		t.Error("best-match resolution did not unify the similar titles")
	}
	// The unrelated title must remain untouched.
	found := false
	for _, tp := range out.Tuples("highBudgetMovies") {
		if tp.Values[0] == "Unrelated Thing" {
			found = true
		}
	}
	if !found {
		t.Error("unrelated value should not be rewritten")
	}
}

// Property: minimal CFD repair always yields an instance satisfying every
// CFD it was given, without changing the tuple count.
func TestPropertyMinimalCFDRepairSatisfies(t *testing.T) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("r", relation.Attr("A", "a"), relation.Attr("B", "b")))
	fd := constraints.FD("fd", "r", []string{"A"}, "B")
	f := func(pairs []uint8) bool {
		in := relation.NewInstance(s)
		for i, p := range pairs {
			in.MustInsert("r", "a"+string(rune('0'+int(p)%3)), "b"+string(rune('0'+i%5)))
		}
		repaired, _, err := MinimalCFDRepair(in, []constraints.CFD{fd})
		if err != nil {
			return false
		}
		return fd.Satisfied(repaired) && repaired.TotalTuples() == in.TotalTuples()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRepairedClauseStringIsReadable(t *testing.T) {
	// Guard against regressions in rendering that would make EXPERIMENTS.md
	// output unreadable: the repaired clause of Example 3.2 mentions vx.
	repaired, _ := RepairedClausesContext(context.Background(), paperMDClause(), Options{})
	got := repaired[0].String()
	if !strings.Contains(got, "highGrossing(vx)") {
		t.Errorf("unexpected rendering: %s", got)
	}
}
