package relation

import (
	"strings"
	"testing"
	"testing/quick"
)

func movieSchema() *Schema {
	s := NewSchema()
	s.MustAdd(NewRelation("movies",
		Attr("id", "imdb_id"), Attr("title", "title"), Attr("year", "year")))
	s.MustAdd(NewRelation("mov2genres",
		Attr("id", "imdb_id"), Attr("genre", "genre")))
	return s
}

func TestSchemaAddAndLookup(t *testing.T) {
	s := movieSchema()
	if s.Len() != 2 {
		t.Fatalf("schema should have 2 relations, got %d", s.Len())
	}
	if !s.Has("movies") || s.Has("unknown") {
		t.Fatal("Has misbehaves")
	}
	r := s.Relation("movies")
	if r.Arity() != 3 {
		t.Fatalf("movies arity = %d", r.Arity())
	}
	if r.AttrIndex("title") != 1 || r.AttrIndex("missing") != -1 {
		t.Fatal("AttrIndex misbehaves")
	}
	if err := s.Add(NewRelation("movies")); err == nil {
		t.Fatal("duplicate relation must be rejected")
	}
	if got := s.Names(); got[0] != "movies" || got[1] != "mov2genres" {
		t.Fatalf("Names order wrong: %v", got)
	}
}

func TestRelationString(t *testing.T) {
	r := NewRelation("movies", Attr("id", "d"), Attr("title", "d2"))
	if got := r.String(); got != "movies(id, title)" {
		t.Errorf("String = %q", got)
	}
}

func TestInstanceInsertAndSelect(t *testing.T) {
	in := NewInstance(movieSchema())
	in.MustInsert("movies", "m1", "Superbad (2007)", "2007")
	in.MustInsert("movies", "m2", "Zoolander (2001)", "2001")
	in.MustInsert("mov2genres", "m1", "comedy")
	in.MustInsert("mov2genres", "m2", "comedy")

	if in.Count("movies") != 2 || in.TotalTuples() != 4 {
		t.Fatalf("counts wrong: %d %d", in.Count("movies"), in.TotalTuples())
	}
	got := in.SelectPositions("mov2genres", 1, "comedy")
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("SelectPositions comedy = %v, want [0 1]", got)
	}
	if tp := in.TupleAt("mov2genres", got[1]); !tp.Equal(NewTuple("mov2genres", "m2", "comedy")) {
		t.Fatalf("TupleAt(%d) = %v", got[1], tp)
	}
	if len(in.SelectPositions("movies", 0, "m3")) != 0 {
		t.Fatal("SelectPositions miss should return nothing")
	}
	if len(in.SelectPositions("movies", 9, "m1")) != 0 {
		t.Fatal("SelectPositions with bad attribute index should return nothing")
	}
}

func TestInstanceInsertErrors(t *testing.T) {
	in := NewInstance(movieSchema())
	if err := in.Insert("nope", "a"); err == nil {
		t.Fatal("insert into unknown relation must fail")
	}
	if err := in.Insert("movies", "only-one"); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

func TestInstanceDistinctValues(t *testing.T) {
	in := NewInstance(movieSchema())
	in.MustInsert("mov2genres", "m1", "comedy")
	in.MustInsert("mov2genres", "m2", "comedy")
	in.MustInsert("mov2genres", "m3", "drama")
	got := in.DistinctValues("mov2genres", 1)
	if len(got) != 2 || got[0] != "comedy" || got[1] != "drama" {
		t.Fatalf("DistinctValues = %v", got)
	}
}

func TestInstanceCloneIndependence(t *testing.T) {
	in := NewInstance(movieSchema())
	in.MustInsert("movies", "m1", "Superbad", "2007")
	clone := in.Clone()
	clone.MustInsert("movies", "m2", "Zoolander", "2001")
	clone.ReplaceValue("movies", 1, "Superbad", "Changed")
	if in.Count("movies") != 1 {
		t.Fatal("clone insert leaked into original")
	}
	if in.Tuples("movies")[0].Values[1] != "Superbad" {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestInstanceReplaceValue(t *testing.T) {
	in := NewInstance(movieSchema())
	in.MustInsert("movies", "m1", "Bait", "2007")
	in.MustInsert("movies", "m2", "Bait", "2012")
	n := in.ReplaceValue("movies", 1, "Bait", "Bait (fixed)")
	if n != 2 {
		t.Fatalf("ReplaceValue should rewrite 2 fields, got %d", n)
	}
	if len(in.SelectPositions("movies", 1, "Bait")) != 0 {
		t.Fatal("old value still indexed")
	}
	if len(in.SelectPositions("movies", 1, "Bait (fixed)")) != 2 {
		t.Fatal("new value not indexed")
	}
	if in.ReplaceValue("movies", 1, "missing", "x") != 0 {
		t.Fatal("replacing a missing value should do nothing")
	}
	if in.ReplaceValue("movies", 1, "same", "same") != 0 {
		t.Fatal("no-op replacement should do nothing")
	}
}

func TestInstanceSetValueAt(t *testing.T) {
	in := NewInstance(movieSchema())
	in.MustInsert("movies", "m1", "Bait", "2007")
	if err := in.SetValueAt("movies", 0, 2, "2008"); err != nil {
		t.Fatal(err)
	}
	if in.Tuples("movies")[0].Values[2] != "2008" {
		t.Fatal("SetValueAt did not update the tuple")
	}
	if len(in.SelectPositions("movies", 2, "2007")) != 0 || len(in.SelectPositions("movies", 2, "2008")) != 1 {
		t.Fatal("SetValueAt did not maintain the index")
	}
	if err := in.SetValueAt("movies", 5, 0, "x"); err == nil {
		t.Fatal("out-of-range position must error")
	}
	if err := in.SetValueAt("movies", 0, 9, "x"); err == nil {
		t.Fatal("out-of-range attribute must error")
	}
	if err := in.SetValueAt("movies", 0, 2, "2008"); err != nil {
		t.Fatal("same-value SetValueAt should be a no-op without error")
	}
}

func TestTupleHelpers(t *testing.T) {
	a := NewTuple("movies", "m1", "Superbad", "2007")
	b := a.Clone()
	b.Values[1] = "changed"
	if a.Values[1] != "Superbad" {
		t.Fatal("Clone must deep copy")
	}
	if !a.Equal(NewTuple("movies", "m1", "Superbad", "2007")) {
		t.Fatal("Equal should hold for identical tuples")
	}
	if a.Equal(b) || a.Equal(NewTuple("other", "m1", "Superbad", "2007")) {
		t.Fatal("Equal should reject differing tuples")
	}
	if !strings.Contains(a.String(), "Superbad") {
		t.Fatal("String should include values")
	}
	if a.Key() == b.Key() {
		t.Fatal("Key must distinguish different tuples")
	}
}

func TestInstanceStatsAndString(t *testing.T) {
	in := NewInstance(movieSchema())
	in.MustInsert("movies", "m1", "Superbad", "2007")
	rels, tuples := in.Stats()
	if rels != 2 || tuples != 1 {
		t.Fatalf("Stats = %d %d", rels, tuples)
	}
	if !strings.Contains(in.String(), "movies: 1 tuples") {
		t.Errorf("String = %q", in.String())
	}
}

// Property: after inserting any set of genre rows, SelectPositions by value
// returns exactly the positions whose attribute equals the value.
func TestPropertySelectMatchesLinearScan(t *testing.T) {
	f := func(vals []uint8) bool {
		in := NewInstance(movieSchema())
		genres := []string{"comedy", "drama", "action"}
		for i, v := range vals {
			in.MustInsert("mov2genres", ids(i), genres[int(v)%len(genres)])
		}
		for _, g := range genres {
			want := 0
			for _, tp := range in.Tuples("mov2genres") {
				if tp.Values[1] == g {
					want++
				}
			}
			if len(in.SelectPositions("mov2genres", 1, g)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Clone always yields an instance with identical contents.
func TestPropertyCloneEqualContents(t *testing.T) {
	f := func(vals []uint8) bool {
		in := NewInstance(movieSchema())
		for i, v := range vals {
			in.MustInsert("movies", ids(i), "t"+ids(int(v)), "2000")
		}
		clone := in.Clone()
		if clone.TotalTuples() != in.TotalTuples() {
			return false
		}
		for i, tp := range in.Tuples("movies") {
			if !tp.Equal(clone.Tuples("movies")[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func ids(i int) string {
	return "m" + string(rune('0'+i%10)) + string(rune('a'+(i/10)%26))
}
