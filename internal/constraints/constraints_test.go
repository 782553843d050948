package constraints

import (
	"strings"
	"testing"

	"dlearn/internal/relation"
)

func testSchema() *relation.Schema {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("movies",
		relation.Attr("id", "imdb_id"), relation.Attr("title", "title"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("highBudgetMovies",
		relation.Attr("title", "title")))
	s.MustAdd(relation.NewRelation("mov2locale",
		relation.Attr("title", "title"), relation.Attr("language", "language"), relation.Attr("country", "country")))
	return s
}

func TestMDValidate(t *testing.T) {
	s := testSchema()
	md := SimpleMD("md1", "movies", "title", "highBudgetMovies", "title")
	if err := md.Validate(s); err != nil {
		t.Fatalf("valid MD rejected: %v", err)
	}
	// Attributes of different domains may appear in an MD (the MD itself
	// declares them comparable), so that case is valid.
	if err := SimpleMD("m", "movies", "id", "highBudgetMovies", "title").Validate(s); err != nil {
		t.Errorf("cross-domain MD should validate: %v", err)
	}
	bad := []MD{
		SimpleMD("m", "nope", "title", "highBudgetMovies", "title"),
		SimpleMD("m", "movies", "title", "nope", "title"),
		SimpleMD("m", "movies", "nope", "highBudgetMovies", "title"),
		SimpleMD("m", "movies", "title", "highBudgetMovies", "nope"),
		SimpleMD("m", "movies", "title", "movies", "title"),             // same relation
		NewMD("m", "movies", "highBudgetMovies", nil, "title", "title"), // empty LHS
	}
	for i, m := range bad {
		if err := m.Validate(s); err == nil {
			t.Errorf("bad MD %d accepted: %s", i, m)
		}
	}
}

func TestMDIndexResolution(t *testing.T) {
	s := testSchema()
	md := SimpleMD("md1", "movies", "title", "highBudgetMovies", "title")
	if got := md.Reverse().RightAttrIndexes(s); len(got) != 1 || got[0] != 1 {
		t.Errorf("Reverse().RightAttrIndexes = %v", got)
	}
	if got := md.RightAttrIndexes(s); len(got) != 1 || got[0] != 0 {
		t.Errorf("RightAttrIndexes = %v", got)
	}
	l, r := md.MatchIndexes(s)
	if l != 1 || r != 0 {
		t.Errorf("MatchIndexes = %d, %d", l, r)
	}
}

func TestMDReverse(t *testing.T) {
	md := SimpleMD("md1", "movies", "title", "highBudgetMovies", "title")
	rev := md.Reverse()
	if rev.LeftRel != "highBudgetMovies" || rev.RightRel != "movies" {
		t.Errorf("Reverse got %+v", rev)
	}
	if rev.Reverse().LeftRel != md.LeftRel {
		t.Error("double reverse should restore the original orientation")
	}
}

func TestMDStringAndValidateSet(t *testing.T) {
	s := testSchema()
	md := SimpleMD("md1", "movies", "title", "highBudgetMovies", "title")
	if got := md.String(); !strings.Contains(got, "movies[title] ~ highBudgetMovies[title]") {
		t.Errorf("String = %q", got)
	}
	if err := ValidateMDs(s, []MD{md}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMDs(s, []MD{md, md}); err == nil {
		t.Error("duplicate MD names must be rejected")
	}
	anon := md
	anon.Name = ""
	if err := ValidateMDs(s, []MD{anon}); err == nil {
		t.Error("empty MD name must be rejected")
	}
}

func TestCFDValidate(t *testing.T) {
	s := testSchema()
	cfd := NewCFD("cfd1", "mov2locale", []string{"title", "language"}, "country",
		map[string]string{"language": "English"})
	if err := cfd.Validate(s); err != nil {
		t.Fatalf("valid CFD rejected: %v", err)
	}
	bad := []CFD{
		NewCFD("c", "nope", []string{"title"}, "country", nil),
		NewCFD("c", "mov2locale", nil, "country", nil),
		NewCFD("c", "mov2locale", []string{"title"}, "", nil),
		NewCFD("c", "mov2locale", []string{"title"}, "nope", nil),
		NewCFD("c", "mov2locale", []string{"nope"}, "country", nil),
		NewCFD("c", "mov2locale", []string{"country"}, "country", nil),
		NewCFD("c", "mov2locale", []string{"title"}, "country", map[string]string{"language": "English"}),
	}
	for i, c := range bad {
		if err := c.Validate(s); err == nil {
			t.Errorf("bad CFD %d accepted: %s", i, c)
		}
	}
}

func TestCFDPatternMatching(t *testing.T) {
	cfd := NewCFD("cfd1", "mov2locale", []string{"title", "language"}, "country",
		map[string]string{"language": "English"})
	if !cfd.MatchesPattern("title", "Bait") {
		t.Error("wildcard pattern should match anything")
	}
	if !cfd.MatchesPattern("language", "English") || cfd.MatchesPattern("language", "Spanish") {
		t.Error("constant pattern should match only its constant")
	}
	if cfd.PatternOf("country") != Wildcard {
		t.Error("missing pattern entries default to wildcard")
	}
}

func TestCFDTupleViolates(t *testing.T) {
	s := testSchema()
	cfd := NewCFD("cfd1", "mov2locale", []string{"title", "language"}, "country",
		map[string]string{"language": "English"})
	r1 := relation.NewTuple("mov2locale", "Bait", "English", "USA")
	r2 := relation.NewTuple("mov2locale", "Bait", "English", "Ireland")
	r3 := relation.NewTuple("mov2locale", "Bait", "Spanish", "Spain")
	r4 := relation.NewTuple("mov2locale", "Bait", "English", "USA")
	if !cfd.TupleViolates(s, r1, r2) {
		t.Error("r1, r2 should violate the paper's CFD φ1")
	}
	if cfd.TupleViolates(s, r1, r3) {
		t.Error("different language should not violate (pattern mismatch)")
	}
	if cfd.TupleViolates(s, r1, r4) {
		t.Error("identical country should not violate")
	}
	other := relation.NewTuple("movies", "m1", "Bait", "2007")
	if cfd.TupleViolates(s, r1, other) {
		t.Error("tuples of other relations never violate")
	}
}

func TestCFDFindViolations(t *testing.T) {
	s := testSchema()
	in := relation.NewInstance(s)
	in.MustInsert("mov2locale", "Bait", "English", "USA")
	in.MustInsert("mov2locale", "Bait", "English", "Ireland")
	in.MustInsert("mov2locale", "Bait", "Spanish", "Spain")
	in.MustInsert("mov2locale", "Rec", "Spanish", "Spain")
	cfd := NewCFD("cfd1", "mov2locale", []string{"title", "language"}, "country",
		map[string]string{"language": "English"})
	viols := cfd.FindViolations(in)
	if len(viols) != 1 {
		t.Fatalf("expected exactly one violating pair, got %d", len(viols))
	}
	if viols[0].PosA == viols[0].PosB {
		t.Error("violation should involve two distinct tuples")
	}
	if cfd.Satisfied(in) {
		t.Error("instance with violations reported as satisfied")
	}
	in2 := relation.NewInstance(s)
	in2.MustInsert("mov2locale", "Bait", "English", "USA")
	in2.MustInsert("mov2locale", "Rec", "Spanish", "Spain")
	if !cfd.Satisfied(in2) {
		t.Error("clean instance reported as violating")
	}
}

func TestCFDFindViolationsConstantRHSPattern(t *testing.T) {
	s := testSchema()
	in := relation.NewInstance(s)
	in.MustInsert("mov2locale", "Bait", "English", "Ireland")
	cfd := NewCFD("cfdUSA", "mov2locale", []string{"language"}, "country",
		map[string]string{"language": "English", "country": "USA"})
	viols := cfd.FindViolations(in)
	if len(viols) != 1 {
		t.Fatalf("single tuple breaking a constant RHS pattern should violate, got %d", len(viols))
	}
	if viols[0].PosA != viols[0].PosB {
		t.Error("single-tuple violation should reference the same position twice")
	}
}

func TestFDHelper(t *testing.T) {
	s := testSchema()
	fd := FD("fd1", "movies", []string{"id"}, "title")
	if err := fd.Validate(s); err != nil {
		t.Fatal(err)
	}
	in := relation.NewInstance(s)
	in.MustInsert("movies", "m1", "Superbad", "2007")
	in.MustInsert("movies", "m1", "Superbad!", "2007")
	if fd.Satisfied(in) {
		t.Error("duplicate id with different titles should violate the FD")
	}
}

func TestValidateCFDSet(t *testing.T) {
	s := testSchema()
	a := FD("a", "movies", []string{"id"}, "title")
	b := FD("b", "movies", []string{"id"}, "year")
	if err := ValidateCFDs(s, []CFD{a, b}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateCFDs(s, []CFD{a, a}); err == nil {
		t.Error("duplicate CFD names must be rejected")
	}
	c := a
	c.Name = ""
	if err := ValidateCFDs(s, []CFD{c}); err == nil {
		t.Error("empty CFD name must be rejected")
	}
}

func TestConsistentCFDs(t *testing.T) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("r", relation.Attr("A", "a"), relation.Attr("B", "b")))
	// The paper's example of an inconsistent pair:
	// (A → B, a1 || b1) and (B → A, b1 || a2).
	c1 := NewCFD("c1", "r", []string{"A"}, "B", map[string]string{"A": "a1", "B": "b1"})
	c2 := NewCFD("c2", "r", []string{"B"}, "A", map[string]string{"B": "b1", "A": "a2"})
	if ConsistentCFDs(s, []CFD{c1, c2}) {
		t.Error("the paper's inconsistent CFD pair should be detected")
	}
	// Compatible constants are fine.
	c3 := NewCFD("c3", "r", []string{"B"}, "A", map[string]string{"B": "b1", "A": "a1"})
	if !ConsistentCFDs(s, []CFD{c1, c3}) {
		t.Error("compatible CFDs reported inconsistent")
	}
	// Plain FDs are always consistent.
	if !ConsistentCFDs(s, []CFD{FD("f1", "r", []string{"A"}, "B"), FD("f2", "r", []string{"B"}, "A")}) {
		t.Error("plain FDs reported inconsistent")
	}
	// CFDs over unknown relations are ignored by the check.
	if !ConsistentCFDs(s, []CFD{NewCFD("x", "unknown", []string{"A"}, "B", nil)}) {
		t.Error("unknown relation should not make the set inconsistent")
	}
}

func TestCFDString(t *testing.T) {
	cfd := NewCFD("cfd1", "mov2locale", []string{"title", "language"}, "country",
		map[string]string{"language": "English"})
	s := cfd.String()
	if !strings.Contains(s, "title,language -> country") || !strings.Contains(s, "English") {
		t.Errorf("String = %q", s)
	}
}
