package relation

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
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
				g, w := selectValue(in, rel, attr, v), ref.selectPositions(rel, attr, v)
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
			if g := in.SelectPositions(rel, attr, uint32(in.Interner().Len())); g != nil {
				t.Fatalf("%s.SelectPositions(%d) of an unassigned ID = %v", rel, attr, g)
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

// selectValue answers σ_{attr=value}(rel) through the ID-keyed selection: a
// value the instance never interned selects nothing.
func selectValue(in *Instance, rel string, attr int, value string) []int {
	id, ok := in.Interner().Lookup(value)
	if !ok {
		return nil
	}
	return in.SelectPositions(rel, attr, id)
}

// runProgram drives a program of 4-byte steps (op, x, y, z) through the
// interned columnar Instance and the boxed reference in lockstep. Every
// mutation result (insert errors, rewrite counts) must match. After a step
// whose z has its high bit clear the whole observable state is compared,
// which builds every index; steps with the bit set read nothing, so
// mutations and clones also run on instances whose indexes were never built.
// The full state is compared at the end, on the instance and on a clone.
func runProgram(t *testing.T, program []byte) {
	t.Helper()
	in := NewInstance(fuzzSchema())
	ref := newBoxedInstance(fuzzSchema())
	for i := 0; i+3 < len(program); i += 4 {
		op, x, y, z := program[i], program[i+1], program[i+2], program[i+3]
		switch op % 6 {
		case 0: // insert into r
			err1 := in.Insert("r", fuzzVal(x), fuzzVal(y))
			err2 := ref.insert("r", fuzzVal(x), fuzzVal(y))
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: Insert r: err %v vs %v", i, err1, err2)
			}
		case 1: // insert into s
			err1 := in.Insert("s", fuzzVal(x))
			err2 := ref.insert("s", fuzzVal(x))
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: Insert s: err %v vs %v", i, err1, err2)
			}
		case 2: // replace a value in s
			n1 := in.ReplaceValue("s", 0, fuzzVal(x), fuzzVal(y))
			n2 := ref.replaceValue("s", 0, fuzzVal(x), fuzzVal(y))
			if n1 != n2 {
				t.Fatalf("step %d: ReplaceValue s %q->%q: %d vs %d", i, fuzzVal(x), fuzzVal(y), n1, n2)
			}
		case 3: // replace a value in r
			attr := int(z) % 2
			n1 := in.ReplaceValue("r", attr, fuzzVal(x), fuzzVal(y))
			n2 := ref.replaceValue("r", attr, fuzzVal(x), fuzzVal(y))
			if n1 != n2 {
				t.Fatalf("step %d: ReplaceValue r attr %d %q->%q: %d vs %d", i, attr, fuzzVal(x), fuzzVal(y), n1, n2)
			}
		case 4: // point rewrite in r (positions may be out of range)
			pos, attr := int(x)%8, int(z)%3-1
			err1 := in.SetValueAt("r", pos, attr, fuzzVal(y))
			err2 := ref.setValueAt("r", pos, attr, fuzzVal(y))
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: SetValueAt r %d/%d: err %v vs %v", i, pos, attr, err1, err2)
			}
		case 5: // clone and keep using the clone
			in = in.Clone()
		}
		if z&0x80 == 0 {
			assertParity(t, in, ref)
		}
	}
	// A clone taken before any final read must hold the same state.
	assertParity(t, in.Clone(), ref)
	assertParity(t, in, ref)
}

// FuzzInstanceParity drives random insert/rewrite/clone/read sequences
// through the interned columnar Instance and the boxed reference (see
// runProgram).
func FuzzInstanceParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{1, 5, 9, 2, 250, 13}, 20))
	f.Add([]byte("\x00\x05\x1f\x05\x1f\x02\x03\x04\x01\x02\x03\x04\x05\x06\x07"))
	f.Add(bytes.Repeat([]byte{0, 5, 9, 0x81, 3, 5, 11, 0x80, 5, 0, 0, 0x80, 4, 1, 6, 0x81}, 4))
	f.Fuzz(runProgram)
}

// TestInstanceParityReplay runs the fuzz body over fixed adversarial
// programs so the differential check always executes under plain `go test`
// (fuzz corpora only run when fuzzing is requested explicitly). The first
// three read after every step; the others read nothing before their
// mutations and clones, or read only between them.
func TestInstanceParityReplay(t *testing.T) {
	programs := [][]byte{
		bytes.Repeat([]byte{0, 5, 9, 1, 2, 5, 9, 0, 3, 5, 11, 0, 4, 1, 6, 1, 5, 0, 0, 0}, 6),
		[]byte("\x00\x05\x1f\x05\x1f\x02\x03\x04\x01\x02\x03\x04\x05\x06\x07\x08"),
		bytes.Repeat([]byte{2, 4, 4, 0, 3, 4, 7, 1, 0, 4, 4, 0}, 10),
		// Inserts, a clone of the unindexed instance, then rewrites.
		bytes.Repeat([]byte{0, 5, 9, 0x81, 1, 4, 0, 0x80, 0, 4, 5, 0x80, 5, 0, 0, 0x80, 3, 5, 11, 0x80, 4, 1, 6, 0x81}, 3),
		// Rewrites on instances never read, then inserts after the rewrite
		// built the index.
		bytes.Repeat([]byte{0, 1, 2, 0x80, 0, 2, 1, 0x80, 1, 1, 0, 0x80, 2, 1, 3, 0x80, 4, 0, 5, 0x82, 0, 3, 1, 0x80}, 4),
		// Reads in between: a read, inserts into the indexed instance, a
		// clone, rewrites.
		bytes.Repeat([]byte{0, 1, 2, 0x80, 1, 1, 0, 0, 0, 1, 7, 0x80, 5, 0, 0, 0x80, 3, 1, 8, 0x80, 1, 2, 0, 0}, 4),
		// r = (a a) (b a) (a a), never read; rewrite b to a in the first
		// attribute, so a's entry is [0 2 1], not row order; then clone.
		{0, 1, 1, 0x80, 0, 2, 1, 0x80, 0, 1, 1, 0x80, 3, 2, 1, 0x80, 5, 0, 0, 0x80},
	}
	for i, program := range programs {
		t.Run(fmt.Sprint(i), func(t *testing.T) { runProgram(t, program) })
	}
}

// TestConcurrentFirstReads races the first selections, DistinctValues calls
// and clones of a freshly inserted instance, so its indexes are built under
// concurrent readers (run under -race), and checks every answer.
func TestConcurrentFirstReads(t *testing.T) {
	in := NewInstance(fuzzSchema())
	ref := newBoxedInstance(fuzzSchema())
	for i := range 64 {
		x, y := fuzzVal(byte(i)), fuzzVal(byte(i*7+3))
		in.MustInsert("r", x, y)
		_ = ref.insert("r", x, y)
		in.MustInsert("s", y)
		_ = ref.insert("s", y)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 1 {
				assertParity(t, in.Clone(), ref)
			}
			assertParity(t, in, ref)
		}()
	}
	wg.Wait()
}
