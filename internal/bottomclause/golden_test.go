package bottomclause_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/constraints"
	"dlearn/internal/datagen"
	"dlearn/internal/relation"
)

// goldenProblem is one instance with the examples whose bottom clauses the
// golden test hashes.
type goldenProblem struct {
	name     string
	inst     *relation.Instance
	target   *relation.Relation
	mds      []constraints.MD
	cfds     []constraints.CFD
	examples []relation.Tuple
}

// everyNth keeps every n-th tuple, so the golden spans positives and
// negatives of a generated problem in a fraction of its grounding time.
func everyNth(ts []relation.Tuple, n int) []relation.Tuple {
	var out []relation.Tuple
	for i := 0; i < len(ts); i += n {
		out = append(out, ts[i])
	}
	return out
}

func generatedProblems(t *testing.T) []goldenProblem {
	mc := datagen.DefaultMoviesConfig()
	mc.Movies, mc.MDCount, mc.ViolationRate, mc.Seed = 300, 3, 0.1, 1
	movies, err := datagen.Movies(mc)
	if err != nil {
		t.Fatal(err)
	}
	products, err := datagen.Products(datagen.DefaultProductsConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenProblem
	for _, ds := range []struct {
		name string
		ds   *datagen.Dataset
	}{{"movies", movies}, {"products", products}} {
		p := ds.ds.Problem
		out = append(out, goldenProblem{
			name: ds.name, inst: p.Instance, target: p.Target, mds: p.MDs, cfds: p.CFDs,
			examples: append(everyNth(p.Pos, 4), everyNth(p.Neg, 8)...),
		})
	}
	return out
}

// duplicateRowsProblem is a hand-built instance whose relations hold
// identical rows at several positions, more distinct rows per example than
// the sample size, and names reached only through an MD. Deduplicating
// candidate rows by position instead of by value changes which rows the
// sampler draws.
func duplicateRowsProblem() goldenProblem {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("person",
		relation.Attr("pid", "pid"), relation.Attr("name", "name")))
	s.MustAdd(relation.NewRelation("visits",
		relation.Attr("pid", "pid"), relation.Attr("place", "place")))
	s.MustAdd(relation.NewRelation("directory",
		relation.Attr("name", "dname"), relation.Attr("city", "city")))
	in := relation.NewInstance(s)
	names := []string{"Ann Lee", "Bob Stone", "Carla Diaz", "Dan Wu"}
	places := []string{"park", "park", "park", "museum", "museum", "zoo", "cafe", "beach", "pier"}
	for i, name := range names {
		pid := fmt.Sprintf("p%d", i)
		in.MustInsert("person", pid, name)
		for j, place := range places {
			if (i+j)%4 != 3 {
				in.MustInsert("visits", pid, place)
			}
		}
		for j, city := range []string{"Oslo", "Oslo", "Rome", "Lima", "Lima", "Kyiv"} {
			if (i+j)%3 != 2 {
				in.MustInsert("directory", name+".", city)
			}
		}
	}
	target := relation.NewRelation("regular", relation.Attr("pid", "pid"))
	md := constraints.SimpleMD("md_name", "person", "name", "directory", "name")
	var examples []relation.Tuple
	for i := range names {
		examples = append(examples, relation.NewTuple("regular", fmt.Sprintf("p%d", i)))
	}
	return goldenProblem{name: "duprows", inst: in, target: target, mds: []constraints.MD{md}, examples: examples}
}

// goldenHashes pins the ground and lifted bottom clauses of every golden
// configuration, keyed by problem/MD mode/k_m/sample size.
var goldenHashes = map[string]string{
	"duprows/ignore/km1/s2":       "b876dea645dada28",
	"duprows/ignore/km1/s3":       "9a81b52dab02860b",
	"duprows/ignore/km2/s2":       "b876dea645dada28",
	"duprows/ignore/km2/s3":       "9a81b52dab02860b",
	"duprows/exact/km1/s2":        "b876dea645dada28",
	"duprows/exact/km1/s3":        "9a81b52dab02860b",
	"duprows/exact/km2/s2":        "b876dea645dada28",
	"duprows/exact/km2/s3":        "9a81b52dab02860b",
	"duprows/similarity/km1/s2":   "a2df04dd0a6e76b5",
	"duprows/similarity/km1/s3":   "8e7ae9b89b3a234e",
	"duprows/similarity/km2/s2":   "a2df04dd0a6e76b5",
	"duprows/similarity/km2/s3":   "8e7ae9b89b3a234e",
	"movies/ignore/km1/s10":       "e238b762ec723818",
	"movies/ignore/km2/s10":       "e238b762ec723818",
	"movies/exact/km1/s10":        "4221800228f398a8",
	"movies/exact/km2/s10":        "4221800228f398a8",
	"movies/similarity/km1/s10":   "2c8d7254edf329f4",
	"movies/similarity/km2/s10":   "f1aea0bbf68d09a0",
	"products/ignore/km1/s10":     "dd8767aa8a95e002",
	"products/ignore/km2/s10":     "dd8767aa8a95e002",
	"products/exact/km1/s10":      "7a404cc5ac6e2194",
	"products/exact/km2/s10":      "7a404cc5ac6e2194",
	"products/similarity/km1/s10": "1db9549a4835ee86",
	"products/similarity/km2/s10": "7c7ba2c5b2896bc2",
}

// TestBottomClauseGolden hashes GroundBottomClause and BottomClause over
// generated movies and products problems and a hand-built instance with
// duplicate rows, for every MD mode and two k_m values. Any change to a
// sampled tuple, a similarity match or an rng draw changes a hash.
func TestBottomClauseGolden(t *testing.T) {
	problems := append(generatedProblems(t), duplicateRowsProblem())
	got := make(map[string]string)
	for _, p := range problems {
		for mode, modeName := range map[bottomclause.MDMode]string{
			bottomclause.MDIgnore: "ignore", bottomclause.MDExact: "exact", bottomclause.MDSimilarity: "similarity",
		} {
			for _, km := range []int{1, 2} {
				sampleSizes := []int{10}
				if p.name == "duprows" {
					sampleSizes = []int{2, 3}
				}
				for _, sample := range sampleSizes {
					cfg := bottomclause.DefaultConfig()
					cfg.MDMode, cfg.KM, cfg.SampleSize, cfg.Seed = mode, km, sample, 1
					b := bottomclause.NewBuilder(p.inst, p.target, p.mds, p.cfds, cfg)
					key := fmt.Sprintf("%s/%s/km%d/s%d", p.name, modeName, km, sample)
					got[key] = clauseHash(t, b, p.examples)
				}
			}
		}
	}
	for key, h := range got {
		if want := goldenHashes[key]; h != want {
			t.Errorf("%s: clause hash %s, want %s", key, h, want)
		}
	}
	if t.Failed() {
		keys := slices.Sorted(maps.Keys(got))
		for _, key := range keys {
			t.Logf("%q: %q,", key, got[key])
		}
	}
}

// clauseHash hashes the ground and lifted bottom clause of each example, in
// order.
func clauseHash(t *testing.T, b *bottomclause.Builder, examples []relation.Tuple) string {
	t.Helper()
	h := sha256.New()
	for _, e := range examples {
		g, err := b.GroundBottomClause(e)
		if err != nil {
			t.Fatal(err)
		}
		c, err := b.BottomClause(e)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.WriteString(h, g.String()+"\n"+g.Key()+"\n"+c.String()+"\n"+c.Key()+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestBuilderConcurrentFill grounds the same tuples from four goroutines on
// one fresh builder, released together so they race to build its plan (row
// identities, value ranks) and then fill its similarity indexes and top-k_m
// memo concurrently, and checks every clause against a serial run.
func TestBuilderConcurrentFill(t *testing.T) {
	p := generatedProblems(t)[0]
	cfg := bottomclause.DefaultConfig()
	cfg.KM, cfg.Seed = 2, 1
	newBuilder := func() *bottomclause.Builder {
		return bottomclause.NewBuilder(p.inst, p.target, p.mds, p.cfds, cfg)
	}
	serial := newBuilder()
	want := make([]string, len(p.examples))
	for i, e := range p.examples {
		g, err := serial.GroundBottomClause(e)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = g.String()
	}
	shared := newBuilder()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Each goroutine starts at a different tuple so the fills
			// interleave on different keys as well as the same ones.
			for k := range p.examples {
				i := (k + w*len(p.examples)/4) % len(p.examples)
				g, err := shared.GroundBottomClause(p.examples[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := g.String(); got != want[i] {
					t.Errorf("goroutine %d, tuple %d grounds to\n%s\nwant\n%s", w, i, got, want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
