package logic

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	v := Var("x")
	if !v.IsVar() || v.IsConst() {
		t.Fatalf("Var(x) should be a variable: %+v", v)
	}
	c := Const("Star Wars")
	if c.IsVar() || !c.IsConst() {
		t.Fatalf("Const should be a constant: %+v", c)
	}
	if got := c.String(); got != `"Star Wars"` {
		t.Errorf("constant with space should quote, got %s", got)
	}
	if got := Const("comedy").String(); got != "comedy" {
		t.Errorf("plain constant should not quote, got %s", got)
	}
	if got := v.String(); got != "x" {
		t.Errorf("variable string = %s, want x", got)
	}
}

func TestSubstitutionApplyAndBind(t *testing.T) {
	s := Substitution{}
	s["x"] = Const("a")
	if got := s.Apply(Var("x")); got != Const("a") {
		t.Errorf("apply bound var = %v", got)
	}
	if got := s.Apply(Var("y")); got != Var("y") {
		t.Errorf("apply unbound var should be identity, got %v", got)
	}
	if got := s.Apply(Const("c")); got != Const("c") {
		t.Errorf("apply constant should be identity, got %v", got)
	}
}

func TestSubstitutionCloneIsIndependent(t *testing.T) {
	s := Substitution{"x": Const("a")}
	c := s.Clone()
	c["y"] = Const("b")
	if _, ok := s["y"]; ok {
		t.Fatal("mutating clone must not affect original")
	}
}

func TestVarCounterFresh(t *testing.T) {
	c := NewVarCounter("u")
	a, b := c.Fresh(), c.Fresh()
	if a == b {
		t.Fatal("fresh variables must be distinct")
	}
	if a.Name != "u0" || b.Name != "u1" {
		t.Errorf("unexpected names %s, %s", a.Name, b.Name)
	}
	if NewVarCounter("").Fresh().Name != "v0" {
		t.Error("empty prefix should default to v")
	}
}

func TestLiteralConstructorsAndAccessors(t *testing.T) {
	r := Rel("movies", Var("y"), Var("t"), Var("z"))
	if !r.IsRelation() || r.IsRepair() {
		t.Fatal("Rel should build a relation literal")
	}
	eq := Eq(Var("a"), Var("b"))
	if eq.Kind != EqualityLit || eq.IsRelation() || eq.IsRepair() {
		t.Fatal("Eq should be an equality restriction literal")
	}
	rep := Repair("md1", OriginMD, Var("x"), Var("vx"), Condition{Op: CondSim, L: Var("x"), R: Var("t")})
	if !rep.IsRepair() {
		t.Fatal("Repair should build a repair literal")
	}
	if rep.Target() != Var("x") || rep.Replacement() != Var("vx") {
		t.Error("repair target/replacement accessors wrong")
	}
	if rep.Origin != OriginMD {
		t.Error("repair origin not recorded")
	}
}

func TestLiteralRenameDeep(t *testing.T) {
	rep := Repair("md1", OriginMD, Var("x"), Var("vx"), Condition{Op: CondSim, L: Var("x"), R: Var("t")})
	s := Substitution{"x": Const("a"), "t": Const("b")}
	renamed := rep.Rename(s)
	if renamed.Args[0] != Const("a") {
		t.Errorf("argument not renamed: %v", renamed.Args[0])
	}
	if renamed.Cond[0].L != Const("a") || renamed.Cond[0].R != Const("b") {
		t.Errorf("condition not renamed: %v", renamed.Cond[0])
	}
	// Renaming must not mutate the original.
	if rep.Args[0] != Var("x") || rep.Cond[0].R != Var("t") {
		t.Error("Rename mutated the receiver")
	}
}

func TestLiteralVariablesAndConstants(t *testing.T) {
	l := Rel("movies", Var("y"), Const("Superbad"), Var("z"))
	vars := l.Variables()
	if !vars["y"] || !vars["z"] || len(vars) != 2 {
		t.Errorf("variables = %v", vars)
	}
	var consts []string
	for _, tm := range l.AllTerms() {
		if tm.IsConst() {
			consts = append(consts, tm.Name)
		}
	}
	if len(consts) != 1 || consts[0] != "Superbad" {
		t.Errorf("constants = %v", consts)
	}
}

func TestLiteralEqualAndKey(t *testing.T) {
	a := Rel("r", Var("x"), Const("c"))
	b := Rel("r", Var("x"), Const("c"))
	c := Rel("r", Var("x"), Const("d"))
	if !a.Equal(b) {
		t.Error("identical literals must be Equal")
	}
	if a.Equal(c) {
		t.Error("different literals must not be Equal")
	}
	if a.Key() != b.Key() || a.Key() == c.Key() {
		t.Error("Key must agree with Equal")
	}
}

func TestLiteralString(t *testing.T) {
	cases := []struct {
		lit  Literal
		want string
	}{
		{Rel("movies", Var("x"), Const("comedy")), "movies(x, comedy)"},
		{Eq(Var("a"), Var("b")), "a = b"},
		{Neq(Var("a"), Var("b")), "a != b"},
		{Sim(Var("a"), Var("b")), "a ~ b"},
	}
	for _, tc := range cases {
		if got := tc.lit.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	rep := Repair("md1", OriginMD, Var("x"), Var("vx"), Condition{Op: CondSim, L: Var("x"), R: Var("t")})
	if s := rep.String(); !strings.Contains(s, "V[md1") || !strings.Contains(s, "x~t") {
		t.Errorf("repair literal rendering unexpected: %s", s)
	}
}

func TestClauseHeadConnected(t *testing.T) {
	// highGrossing(x) <- movies(y,t,z), mov2genres(y,comedy), countries(u, USA)
	// countries(u, USA) is NOT head connected (u appears nowhere else).
	c := NewClause(
		Rel("highGrossing", Var("x")),
		Rel("movies", Var("y"), Var("x"), Var("z")),
		Rel("mov2genres", Var("y"), Const("comedy")),
		Rel("countries", Var("u"), Const("USA")),
	)
	connected := c.HeadConnected()
	if len(connected) != 2 {
		t.Fatalf("expected 2 head-connected literals, got %v", connected)
	}
	pruned := c.PruneUnconnected()
	if pruned.Length() != 2 {
		t.Fatalf("pruned clause should have 2 literals, got %d", pruned.Length())
	}
	for _, l := range pruned.Body {
		if l.Pred == "countries" {
			t.Fatal("unconnected literal survived pruning")
		}
	}
}

func TestClauseConnectivityThroughRepairLiterals(t *testing.T) {
	// Head variable x connects to movies only through the chain of repair
	// literals V(x,vx), V(t,vt) and the restriction vx = vt.
	c := NewClause(
		Rel("highGrossing", Var("x")),
		Rel("movies", Var("y"), Var("t"), Var("z")),
		Sim(Var("x"), Var("t")),
		Repair("md1", OriginMD, Var("x"), Var("vx"), Condition{Op: CondSim, L: Var("x"), R: Var("t")}),
		Repair("md1", OriginMD, Var("t"), Var("vt"), Condition{Op: CondSim, L: Var("x"), R: Var("t")}),
		Eq(Var("vx"), Var("vt")),
	)
	if got := len(c.HeadConnected()); got != 5 {
		t.Fatalf("all 5 body literals should be head-connected, got %d", got)
	}
}

func TestDropDanglingAuxiliaries(t *testing.T) {
	c := NewClause(
		Rel("t", Var("x")),
		Rel("r", Var("x"), Var("y")),
		Eq(Var("p"), Var("q")), // dangling: p, q appear in no relation literal
		Repair("md", OriginMD, Var("y"), Var("vy")),
	)
	out := c.DropDanglingAuxiliaries()
	if out.Length() != 2 {
		t.Fatalf("expected dangling equality to be dropped, got %v", out)
	}
}

func TestClauseConnectedRepairLiterals(t *testing.T) {
	c := NewClause(
		Rel("t", Var("x")),
		Rel("r", Var("x"), Var("y")),                 // 0
		Repair("md", OriginMD, Var("y"), Var("vy")),  // 1: connected to 0 via y
		Repair("md", OriginMD, Var("vy"), Var("wy")), // 2: connected transitively via vy
		Repair("md", OriginMD, Var("z"), Var("vz")),  // 3: not connected
	)
	got := c.ConnectedRepairLiterals(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("connected repair literals = %v, want [1 2]", got)
	}
	if c.ConnectedRepairLiterals(1) != nil {
		t.Fatal("repair literal itself should return nil")
	}
}

func TestClauseKeyOrderInsensitive(t *testing.T) {
	a := NewClause(Rel("t", Var("x")), Rel("a", Var("x")), Rel("b", Var("x")))
	b := NewClause(Rel("t", Var("x")), Rel("b", Var("x")), Rel("a", Var("x")))
	if a.Key() != b.Key() {
		t.Error("Key should be insensitive to body order")
	}
	if a.Equal(b) {
		t.Error("Equal is order sensitive and should report false here")
	}
}

func TestDefinitionStringAndAdd(t *testing.T) {
	d := &Definition{Target: "highGrossing"}
	d.Add(NewClause(Rel("highGrossing", Var("x")), Rel("movies", Var("y"), Var("x"), Var("z"))),
		ClauseStats{PositivesCovered: 10, NegativesCovered: 1, Score: 9})
	if d.Len() != 1 {
		t.Fatal("Add should append")
	}
	s := d.String()
	if !strings.Contains(s, "pos=10") || !strings.Contains(s, "movies") {
		t.Errorf("definition rendering missing pieces: %s", s)
	}
	empty := &Definition{Target: "p"}
	if !strings.Contains(empty.String(), "empty") {
		t.Error("empty definition should say so")
	}
}

func TestClauseCloneAndRenameIndependence(t *testing.T) {
	c := NewClause(Rel("t", Var("x")), Rel("r", Var("x"), Var("y")))
	clone := c.Clone()
	clone.Body[0].Args[0] = Const("mutated")
	if c.Body[0].Args[0] != Var("x") {
		t.Fatal("Clone must deep-copy body literals")
	}
	renamed := c.Rename(Substitution{"x": Const("a")})
	if renamed.Head.Args[0] != Const("a") || renamed.Body[0].Args[0] != Const("a") {
		t.Fatal("Rename should substitute in head and body")
	}
	if c.Head.Args[0] != Var("x") {
		t.Fatal("Rename must not mutate the receiver")
	}
}

// Property: renaming with an empty substitution is the identity.
func TestPropertyRenameEmptySubstitutionIdentity(t *testing.T) {
	f := func(pred string, varNames []string) bool {
		if pred == "" {
			pred = "r"
		}
		args := make([]Term, 0, len(varNames)+1)
		for _, v := range varNames {
			if v == "" {
				v = "x"
			}
			args = append(args, Var(v))
		}
		args = append(args, Const("c"))
		l := Rel(pred, args...)
		return l.Rename(Substitution{}).Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a clause key is stable under any permutation of its body.
func TestPropertyClauseKeyPermutationInvariant(t *testing.T) {
	f := func(perm []int) bool {
		body := []Literal{
			Rel("a", Var("x")), Rel("b", Var("x"), Var("y")),
			Rel("c", Var("y")), Eq(Var("x"), Var("y")),
		}
		c1 := NewClause(Rel("t", Var("x")), body...)
		// Build a permuted body using perm as a shuffle source.
		shuffled := make([]Literal, len(body))
		copy(shuffled, body)
		for i := range shuffled {
			if len(perm) == 0 {
				break
			}
			j := abs(perm[i%len(perm)]) % len(shuffled)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		c2 := NewClause(Rel("t", Var("x")), shuffled...)
		return c1.Key() == c2.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestClauseKeySeparatesFields pins that the key tells apart what the
// rendering does not: a variable from a constant of the same name, and an
// induced equality from a plain one.
func TestClauseKeySeparatesFields(t *testing.T) {
	head := Rel("t", Var("x"))
	pairs := [][2]Clause{
		{NewClause(head, Rel("r", Var("x"), Var("g"))), NewClause(head, Rel("r", Var("x"), Const("g")))},
		{NewClause(head, Eq(Var("x"), Var("y"))), NewClause(head, InducedEq(Var("x"), Var("y")))},
	}
	for _, p := range pairs {
		if p[0].String() != p[1].String() {
			t.Fatalf("test premise: %v and %v should render alike", p[0], p[1])
		}
		if p[0].Key() == p[1].Key() {
			t.Errorf("%v and %v share a key", p[0], p[1])
		}
	}
}
