package relation_test

import (
	"testing"

	"dlearn/internal/datagen"
	"dlearn/internal/relation"
)

// BenchmarkInstanceBuild inserts the tuples of a 600-product instance
// (6000 tuples) into a fresh instance per iteration, the cost a generator
// pays per instance, and then the first selection and DistinctValues of one
// attribute per relation, which build the indexes an instance that is read
// pays for once. Each iteration checks the rebuilt instance answers as the
// generated one.
func BenchmarkInstanceBuild(b *testing.B) {
	cfg := datagen.DefaultProductsConfig()
	cfg.Products = 600
	ds, err := datagen.Products(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := ds.Problem.Instance
	schema := src.Schema()
	tuples := make(map[string][]relation.Tuple)
	for _, rel := range schema.Names() {
		tuples[rel] = src.Tuples(rel)
	}
	insert := func() *relation.Instance {
		in := relation.NewInstance(schema)
		for _, rel := range schema.Names() {
			for _, t := range tuples[rel] {
				in.MustInsert(rel, t.Values...)
			}
		}
		return in
	}
	check := func(in *relation.Instance) {
		if in.TotalTuples() != src.TotalTuples() {
			b.Fatalf("rebuilt %d tuples, want %d", in.TotalTuples(), src.TotalTuples())
		}
		for _, rel := range schema.Names() {
			got, want := in.DistinctValues(rel, 0), src.DistinctValues(rel, 0)
			if len(got) != len(want) {
				b.Fatalf("%s: %d distinct values, want %d", rel, len(got), len(want))
			}
		}
	}
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := insert()
			b.StopTimer()
			check(in)
			b.StartTimer()
		}
	})
	b.Run("insert+index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := insert()
			for _, rel := range schema.Names() {
				arity := schema.Relation(rel).Arity()
				for a := range arity {
					in.SelectPositions(rel, a, 0)
				}
			}
			b.StopTimer()
			check(in)
			b.StartTimer()
		}
	})
}
