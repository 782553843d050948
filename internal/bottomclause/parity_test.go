package bottomclause

import (
	"fmt"
	"math/rand"
	"testing"

	"dlearn/internal/constraints"
	"dlearn/internal/relation"
)

// parityProblem is an instance, a target relation, MDs and examples to
// ground under every configuration a parity check tries.
type parityProblem struct {
	inst     *relation.Instance
	target   *relation.Relation
	mds      []constraints.MD
	examples []relation.Tuple
}

// parityValues are the values random instances draw from: near-duplicates
// that pass the similarity threshold, strings that sort next to them, and
// the empty string. parityStrangers are example values no instance holds.
var (
	parityValues = []string{
		"alpha", "alpha.", "Alpha", "alphas", "beta", "beta max", "betamax",
		"gamma ray", "gamma-ray", "delta", "x", "", "m1", "m2", "m10",
	}
	parityStrangers = []string{"alphab", "b", "gamma rays", "zeta", "m11"}
)

// randomParityProblem generates a small problem: one to four relations of
// arity one to three over four domains (so values recur across domains and
// relations), duplicate rows, a target of arity one or two, up to three MDs
// between relations or from the target, and examples mixing instance values
// with values the instance does not hold.
func randomParityProblem(rng *rand.Rand) parityProblem {
	domain := func() string { return fmt.Sprintf("d%d", rng.Intn(4)) }
	value := func() string { return parityValues[rng.Intn(len(parityValues))] }
	s := relation.NewSchema()
	rels := make([]*relation.Relation, 1+rng.Intn(4))
	for i := range rels {
		attrs := make([]relation.Attribute, 1+rng.Intn(3))
		for a := range attrs {
			attrs[a] = relation.Attr(fmt.Sprintf("a%d", a), domain())
			attrs[a].Constant = rng.Intn(5) == 0
		}
		rels[i] = relation.NewRelation(fmt.Sprintf("r%d", i), attrs...)
		s.MustAdd(rels[i])
	}
	inst := relation.NewInstance(s)
	for _, r := range rels {
		for range rng.Intn(13) {
			values := make([]string, r.Arity())
			for a := range values {
				values[a] = value()
			}
			inst.MustInsert(r.Name, values...)
		}
	}
	targetAttrs := make([]relation.Attribute, 1+rng.Intn(2))
	for a := range targetAttrs {
		targetAttrs[a] = relation.Attr(fmt.Sprintf("t%d", a), domain())
	}
	target := relation.NewRelation("target", targetAttrs...)

	var mds []constraints.MD
	for i := range rng.Intn(4) {
		right := rels[rng.Intn(len(rels))]
		left := target
		if k := rng.Intn(len(rels) + 1); k < len(rels) && rels[k] != right {
			left = rels[k]
		}
		var pairs []constraints.AttrPair
		for range 1 + rng.Intn(2) {
			pairs = append(pairs, constraints.AttrPair{
				Left:  left.Attrs[rng.Intn(left.Arity())].Name,
				Right: right.Attrs[rng.Intn(right.Arity())].Name,
			})
		}
		mds = append(mds, constraints.NewMD(fmt.Sprintf("md%d", i%2), left.Name, right.Name, pairs, pairs[0].Left, pairs[0].Right))
	}

	var examples []relation.Tuple
	for range 1 + rng.Intn(4) {
		values := make([]string, target.Arity())
		for a := range values {
			if rng.Intn(3) == 0 {
				values[a] = parityStrangers[rng.Intn(len(parityStrangers))]
			} else {
				values[a] = value()
			}
		}
		examples = append(examples, relation.NewTuple(target.Name, values...))
	}
	return parityProblem{inst: inst, target: target, mds: mds, examples: examples}
}

// checkParity grounds every example of p with a builder for cfg and with
// the string-keyed reference, and fails unless the ground and the lifted
// clauses are identical. Each example is grounded twice by the builder, so
// the second pass runs on a filled top-k_m memo.
func checkParity(t *testing.T, p parityProblem, cfg Config) {
	t.Helper()
	b := NewBuilder(p.inst, p.target, p.mds, nil, cfg)
	ref := newReferenceCollector(b)
	for pass := range 2 {
		for _, e := range p.examples {
			want, err := ref.collect(e)
			if err != nil {
				t.Fatal(err)
			}
			for _, ground := range []bool{true, false} {
				g := b.BottomClause
				if ground {
					g = b.GroundBottomClause
				}
				got, err := g(e)
				if err != nil {
					t.Fatal(err)
				}
				w := b.buildClause(e, want, ground)
				if got.String() != w.String() || got.Key() != w.Key() {
					t.Fatalf("%+v, pass %d, example %v, ground=%v:\ngot  %v\nwant %v", cfg, pass, e, ground, got, w)
				}
			}
		}
	}
}

// FuzzGroundParity holds the integer Algorithm 2 of Builder.collect to the
// string-keyed reference on random small problems, in every MD mode, with
// sample sizes from 0 (no cap) to 4, k_m from 1 to 3, one to three rounds
// and any seed.
func FuzzGroundParity(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, uint8(seed), uint8(seed/2), seed*7)
	}
	f.Fuzz(func(t *testing.T, problemSeed int64, shape, km uint8, seed int64) {
		p := randomParityProblem(rand.New(rand.NewSource(problemSeed)))
		cfg := Config{
			Iterations:          1 + int(shape)%3,
			SampleSize:          int(shape/3) % 5,
			KM:                  1 + int(km)%3,
			SimilarityThreshold: DefaultConfig().SimilarityThreshold,
			MDMode:              MDMode(shape / 15 % 3),
			Seed:                seed,
		}
		checkParity(t, p, cfg)
	})
}

// TestGroundParityRandom runs the fuzz body over fixed seeds, in every MD
// mode and sample size, so the differential check runs under plain go test.
func TestGroundParityRandom(t *testing.T) {
	for ps := range int64(40) {
		p := randomParityProblem(rand.New(rand.NewSource(ps)))
		for _, mode := range []MDMode{MDIgnore, MDExact, MDSimilarity} {
			for _, sample := range []int{0, 1, 3} {
				cfg := DefaultConfig()
				cfg.MDMode, cfg.SampleSize, cfg.KM, cfg.Seed = mode, sample, 1+int(ps)%3, ps
				checkParity(t, p, cfg)
			}
		}
	}
}

// checkParityAllModes runs checkParity in every MD mode, with and without a
// sample cap.
func checkParityAllModes(t *testing.T, p parityProblem) {
	t.Helper()
	for _, mode := range []MDMode{MDIgnore, MDExact, MDSimilarity} {
		for _, sample := range []int{0, 2} {
			cfg := DefaultConfig()
			cfg.MDMode, cfg.SampleSize, cfg.KM, cfg.Seed = mode, sample, 2, 1
			checkParity(t, p, cfg)
		}
	}
}

// TestGroundParityStrangerBetweenValues grounds examples whose values are not
// in the instance and sort between instance values, so M's per-domain order
// places constants without an interned rank among ranked ones. The MD probes
// from the stranger, so its similarity matches are ordered against the
// probes of instance values.
func TestGroundParityStrangerBetweenValues(t *testing.T) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("item", relation.Attr("name", "name"), relation.Attr("tag", "tag")))
	s.MustAdd(relation.NewRelation("alias", relation.Attr("name", "name"), relation.Attr("other", "name")))
	inst := relation.NewInstance(s)
	inst.MustInsert("item", "apple pie", "sweet")
	inst.MustInsert("item", "cherry pie", "sweet")
	inst.MustInsert("item", "banana split", "cold")
	inst.MustInsert("alias", "apple pie", "banana bread")
	inst.MustInsert("alias", "cherry pie", "apple tart")
	target := relation.NewRelation("liked", relation.Attr("name", "name"), relation.Attr("tag", "tag"))
	md := constraints.SimpleMD("md_name", "liked", "name", "item", "name")
	examples := []relation.Tuple{
		relation.NewTuple("liked", "banana pie", "sweet"),
		relation.NewTuple("liked", "apple pies", "salty"),
		relation.NewTuple("liked", "banana pie", "banana pie"),
	}
	if _, ok := inst.Interner().Lookup("banana pie"); ok {
		t.Fatal("the stranger must not be interned")
	}
	checkParityAllModes(t, parityProblem{inst: inst, target: target, mds: []constraints.MD{md}, examples: examples})
}

// TestGroundParityValueInTwoDomains grounds a value that occurs in two
// domains: it joins the attributes of both, and a domain it was seen in
// only later must still select it.
func TestGroundParityValueInTwoDomains(t *testing.T) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("person", relation.Attr("id", "pid"), relation.Attr("city", "city")))
	s.MustAdd(relation.NewRelation("place", relation.Attr("city", "city"), relation.Attr("name", "pname")))
	s.MustAdd(relation.NewRelation("namesake", relation.Attr("name", "pname"), relation.Attr("id", "pid")))
	inst := relation.NewInstance(s)
	// "paris" is a city and a person's id; "p1" is an id and a place name.
	inst.MustInsert("person", "p1", "paris")
	inst.MustInsert("person", "paris", "rome")
	inst.MustInsert("place", "paris", "p1")
	inst.MustInsert("place", "rome", "paris")
	inst.MustInsert("namesake", "p1", "paris")
	inst.MustInsert("namesake", "p1", "p2")
	target := relation.NewRelation("visitor", relation.Attr("id", "pid"))
	md := constraints.SimpleMD("md_place", "place", "name", "namesake", "name")
	examples := []relation.Tuple{relation.NewTuple("visitor", "p1"), relation.NewTuple("visitor", "paris")}
	checkParityAllModes(t, parityProblem{inst: inst, target: target, mds: []constraints.MD{md}, examples: examples})
}

// TestGroundParityManyDomains grounds through a chain of 70 relations with 71
// distinct domains, so M's per-constant domain sets span two words, and the
// values recur in many domains.
func TestGroundParityManyDomains(t *testing.T) {
	const n = 70
	s := relation.NewSchema()
	for i := range n {
		s.MustAdd(relation.NewRelation(fmt.Sprintf("link%02d", i),
			relation.Attr("from", fmt.Sprintf("d%02d", i)), relation.Attr("to", fmt.Sprintf("d%02d", i+1))))
	}
	inst := relation.NewInstance(s)
	for i := range n {
		rel := fmt.Sprintf("link%02d", i)
		inst.MustInsert(rel, fmt.Sprintf("v%d", i%5), fmt.Sprintf("v%d", (i+1)%5))
		inst.MustInsert(rel, fmt.Sprintf("v%d", i%5), "hub")
		inst.MustInsert(rel, "hub", fmt.Sprintf("v%d", (i+2)%5))
	}
	target := relation.NewRelation("start", relation.Attr("at", "d00"), relation.Attr("mid", "d64"))
	md := constraints.SimpleMD("md_link", "link63", "to", "link65", "from")
	examples := []relation.Tuple{
		relation.NewTuple("start", "v0", "v4"),
		relation.NewTuple("start", "hub", "hub"),
	}
	p := parityProblem{inst: inst, target: target, mds: []constraints.MD{md}, examples: examples}
	if got := NewBuilder(inst, target, p.mds, nil, DefaultConfig()).loadPlan().domains; got <= 64 {
		t.Fatalf("plan has %d domains, want more than 64", got)
	}
	for _, iterations := range []int{1, 3, 6} {
		for _, sample := range []int{0, 2} {
			cfg := DefaultConfig()
			cfg.Iterations, cfg.SampleSize, cfg.KM, cfg.Seed = iterations, sample, 2, 3
			checkParity(t, p, cfg)
		}
	}
}
