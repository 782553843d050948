package relation

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// boxedInstance is the pre-interning reference implementation of Instance:
// tuples boxed as []string rows with string-keyed per-attribute indexes. It
// is kept test-only (like subsumption's brute-force reference checker) as
// the oracle FuzzInstanceParity drives the interned columnar implementation
// against: every mutation and query must answer identically, including
// iteration and index-entry order.
type boxedInstance struct {
	schema *Schema
	tuples map[string][]Tuple
	index  map[string][]map[string][]int
}

func newBoxedInstance(schema *Schema) *boxedInstance {
	return &boxedInstance{
		schema: schema,
		tuples: make(map[string][]Tuple),
		index:  make(map[string][]map[string][]int),
	}
}

func (in *boxedInstance) insert(rel string, values ...string) error {
	r := in.schema.Relation(rel)
	if r == nil {
		return fmt.Errorf("relation: insert into unknown relation %q", rel)
	}
	if len(values) != r.Arity() {
		return fmt.Errorf("relation: insert into %q: got %d values, want %d", rel, len(values), r.Arity())
	}
	v := make([]string, len(values))
	copy(v, values)
	t := Tuple{Relation: rel, Values: v}
	pos := len(in.tuples[rel])
	in.tuples[rel] = append(in.tuples[rel], t)
	idx := in.index[rel]
	if idx == nil {
		idx = make([]map[string][]int, r.Arity())
		for i := range idx {
			idx[i] = make(map[string][]int)
		}
		in.index[rel] = idx
	}
	for i, val := range t.Values {
		idx[i][val] = append(idx[i][val], pos)
	}
	return nil
}

func (in *boxedInstance) selectPositions(rel string, attr int, value string) []int {
	idx := in.index[rel]
	if idx == nil || attr < 0 || attr >= len(idx) {
		return nil
	}
	return idx[attr][value]
}

func (in *boxedInstance) distinctValues(rel string, attr int) []string {
	idx := in.index[rel]
	if idx == nil || attr < 0 || attr >= len(idx) {
		return nil
	}
	out := make([]string, 0, len(idx[attr]))
	for v := range idx[attr] {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (in *boxedInstance) replaceValue(rel string, attr int, old, new string) int {
	idx := in.index[rel]
	if idx == nil || attr < 0 || attr >= len(idx) || old == new {
		return 0
	}
	positions := idx[attr][old]
	if len(positions) == 0 {
		return 0
	}
	for _, p := range positions {
		in.tuples[rel][p].Values[attr] = new
	}
	delete(idx[attr], old)
	idx[attr][new] = append(idx[attr][new], positions...)
	return len(positions)
}

func (in *boxedInstance) setValueAt(rel string, pos, attr int, value string) error {
	ts := in.tuples[rel]
	if pos < 0 || pos >= len(ts) {
		return fmt.Errorf("relation: SetValueAt %s: position %d out of range", rel, pos)
	}
	r := in.schema.Relation(rel)
	if attr < 0 || attr >= r.Arity() {
		return fmt.Errorf("relation: SetValueAt %s: attribute %d out of range", rel, attr)
	}
	old := ts[pos].Values[attr]
	if old == value {
		return nil
	}
	ts[pos].Values[attr] = value
	entry := in.index[rel][attr][old]
	for i, p := range entry {
		if p == pos {
			entry = append(entry[:i], entry[i+1:]...)
			break
		}
	}
	if len(entry) == 0 {
		delete(in.index[rel][attr], old)
	} else {
		in.index[rel][attr][old] = entry
	}
	in.index[rel][attr][value] = append(in.index[rel][attr][value], pos)
	return nil
}

// TestTupleKeyAdversarialSeparators is the regression test for the historic
// Key collision: joining values with "\x1f" let values containing the
// separator alias distinct tuples. The length-prefixed encoding must keep
// every pair of distinct tuples distinct, whatever bytes the values hold.
func TestTupleKeyAdversarialSeparators(t *testing.T) {
	tuples := []Tuple{
		NewTuple("r", "a\x1fb", "c"),
		NewTuple("r", "a", "b\x1fc"),
		NewTuple("r", "a", "b", "c"),
		NewTuple("r", "a\x1fb\x1fc"),
		NewTuple("r", "a\x1f", "b", "c"),
		NewTuple("r", "", "a\x1fb\x1fc"),
		NewTuple("r", "1:a", "b"),
		NewTuple("r", "1", ":ab"),
		NewTuple("r", "", ""),
		NewTuple("r", ""),
		NewTuple("r"),
		NewTuple("r", "2:a)b", ""),
		NewTuple("r", "2", ":a)b\x1f"),
	}
	keys := make(map[string]Tuple)
	for _, tp := range tuples {
		k := tp.Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("distinct tuples alias key %q: %#v vs %#v", k, prev, tp)
		}
		keys[k] = tp
	}
	// And equal tuples still share a key.
	if NewTuple("r", "a\x1fb", "c").Key() != NewTuple("r", "a\x1fb", "c").Key() {
		t.Fatal("identical tuples must share a key")
	}
}

// fuzzSchema is the differential-testing schema: a binary and a unary
// relation over overlapping domains, so both share interned values.
func fuzzSchema() *Schema {
	s := NewSchema()
	s.MustAdd(NewRelation("r", Attr("a", "d1"), Attr("b", "d2")))
	s.MustAdd(NewRelation("s", Attr("x", "d1")))
	return s
}

// fuzzValues is the value pool the fuzzer indexes into. It deliberately
// includes empty strings and separator bytes so the differential test
// exercises the adversarial cases the old string-keyed code mishandled.
var fuzzValues = []string{
	"", "a", "b", "c", "aa", "a\x1fb", "b\x1fc", "a\x1f", "\x1f", "1:a", ":", "<a|b>",
}

func fuzzVal(b byte) string { return fuzzValues[int(b)%len(fuzzValues)] }

// assertParity compares the complete observable state of the interned
// instance against the boxed reference: tuple lists (content and order),
// per-attribute σ answers for every pool value (positions in order, and the
// tuples TupleAt materializes at them), distinct values, and counts.
func assertParity(t *testing.T, in *Instance, ref *boxedInstance) {
	t.Helper()
	for _, rel := range []string{"r", "s"} {
		got, want := in.Tuples(rel), ref.tuples[rel]
		if len(got) != len(want) {
			t.Fatalf("%s: %d tuples, reference has %d", rel, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s[%d] = %v, reference has %v", rel, i, got[i], want[i])
			}
		}
		if in.Count(rel) != len(want) {
			t.Fatalf("%s: Count = %d, want %d", rel, in.Count(rel), len(want))
		}
		arity := in.Schema().Relation(rel).Arity()
		for attr := 0; attr < arity; attr++ {
			for _, v := range fuzzValues {
				g, w := in.SelectPositions(rel, attr, v), ref.selectPositions(rel, attr, v)
				if len(g) != len(w) {
					t.Fatalf("%s.SelectPositions(%d, %q): %v vs %v", rel, attr, v, g, w)
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("%s.SelectPositions(%d, %q) = %v, want %v", rel, attr, v, g, w)
					}
					if tp := in.TupleAt(rel, g[i]); !tp.Equal(ref.tuples[rel][w[i]]) {
						t.Fatalf("%s.TupleAt(%d) = %v, want %v", rel, g[i], tp, ref.tuples[rel][w[i]])
					}
				}
			}
			gd, wd := in.DistinctValues(rel, attr), ref.distinctValues(rel, attr)
			if len(gd) != len(wd) {
				t.Fatalf("%s.DistinctValues(%d): %v vs %v", rel, attr, gd, wd)
			}
			for i := range wd {
				if gd[i] != wd[i] {
					t.Fatalf("%s.DistinctValues(%d): %v vs %v", rel, attr, gd, wd)
				}
			}
		}
	}
	if in.TotalTuples() != len(ref.tuples["r"])+len(ref.tuples["s"]) {
		t.Fatalf("TotalTuples = %d, reference has %d", in.TotalTuples(), len(ref.tuples["r"])+len(ref.tuples["s"]))
	}
}

// FuzzInstanceParity drives random insert/rewrite/clone sequences through
// the interned columnar Instance and the boxed reference in lockstep,
// asserting identical answers after every step and identical full state at
// the end. Every mutation result (insert errors, rewrite counts) must match
// too.
func FuzzInstanceParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{1, 5, 9, 2, 250, 13}, 20))
	f.Add([]byte("\x00\x05\x1f\x05\x1f\x02\x03\x04\x01\x02\x03\x04\x05\x06\x07"))
	f.Fuzz(func(t *testing.T, program []byte) {
		in := NewInstance(fuzzSchema())
		ref := newBoxedInstance(fuzzSchema())
		for i := 0; i+3 < len(program); i += 4 {
			op, x, y, z := program[i], program[i+1], program[i+2], program[i+3]
			switch op % 6 {
			case 0: // insert into r
				err1 := in.Insert("r", fuzzVal(x), fuzzVal(y))
				err2 := ref.insert("r", fuzzVal(x), fuzzVal(y))
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("Insert r: err %v vs %v", err1, err2)
				}
			case 1: // insert into s
				err1 := in.Insert("s", fuzzVal(x))
				err2 := ref.insert("s", fuzzVal(x))
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("Insert s: err %v vs %v", err1, err2)
				}
			case 2: // replace a value in s
				n1 := in.ReplaceValue("s", 0, fuzzVal(x), fuzzVal(y))
				n2 := ref.replaceValue("s", 0, fuzzVal(x), fuzzVal(y))
				if n1 != n2 {
					t.Fatalf("ReplaceValue s %q->%q: %d vs %d", fuzzVal(x), fuzzVal(y), n1, n2)
				}
			case 3: // replace a value in r
				attr := int(z) % 2
				n1 := in.ReplaceValue("r", attr, fuzzVal(x), fuzzVal(y))
				n2 := ref.replaceValue("r", attr, fuzzVal(x), fuzzVal(y))
				if n1 != n2 {
					t.Fatalf("ReplaceValue r attr %d %q->%q: %d vs %d", attr, fuzzVal(x), fuzzVal(y), n1, n2)
				}
			case 4: // point rewrite in r (positions may be out of range)
				pos, attr := int(x)%8, int(z)%3-1
				err1 := in.SetValueAt("r", pos, attr, fuzzVal(y))
				err2 := ref.setValueAt("r", pos, attr, fuzzVal(y))
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("SetValueAt r %d/%d: err %v vs %v", pos, attr, err1, err2)
				}
			case 5: // clone and keep using the clone
				in = in.Clone()
			}
			assertParity(t, in, ref)
		}
		// Cloning at the end must preserve parity too.
		assertParity(t, in.Clone(), ref)
	})
}

// TestInstanceParityReplay runs the fuzz body over fixed adversarial
// programs so the differential check always executes under plain `go test`
// (fuzz corpora only run when fuzzing is requested explicitly).
func TestInstanceParityReplay(t *testing.T) {
	programs := [][]byte{
		bytes.Repeat([]byte{0, 5, 9, 1, 2, 5, 9, 0, 3, 5, 11, 0, 4, 1, 6, 1, 5, 0, 0, 0}, 6),
		[]byte("\x00\x05\x1f\x05\x1f\x02\x03\x04\x01\x02\x03\x04\x05\x06\x07\x08"),
		bytes.Repeat([]byte{2, 4, 4, 0, 3, 4, 7, 1, 0, 4, 4, 0}, 10),
	}
	for i, program := range programs {
		in := NewInstance(fuzzSchema())
		ref := newBoxedInstance(fuzzSchema())
		for j := 0; j+3 < len(program); j += 4 {
			op, x, y, z := program[j], program[j+1], program[j+2], program[j+3]
			switch op % 6 {
			case 0:
				_ = in.Insert("r", fuzzVal(x), fuzzVal(y))
				_ = ref.insert("r", fuzzVal(x), fuzzVal(y))
			case 1:
				_ = in.Insert("s", fuzzVal(x))
				_ = ref.insert("s", fuzzVal(x))
			case 2:
				if in.ReplaceValue("s", 0, fuzzVal(x), fuzzVal(y)) != ref.replaceValue("s", 0, fuzzVal(x), fuzzVal(y)) {
					t.Fatalf("program %d step %d: ReplaceValue s diverged", i, j)
				}
			case 3:
				attr := int(z) % 2
				if in.ReplaceValue("r", attr, fuzzVal(x), fuzzVal(y)) != ref.replaceValue("r", attr, fuzzVal(x), fuzzVal(y)) {
					t.Fatalf("program %d step %d: ReplaceValue diverged", i, j)
				}
			case 4:
				pos, attr := int(x)%8, int(z)%3-1
				_ = in.SetValueAt("r", pos, attr, fuzzVal(y))
				_ = ref.setValueAt("r", pos, attr, fuzzVal(y))
			case 5:
				in = in.Clone()
			}
			assertParity(t, in, ref)
		}
	}
}
