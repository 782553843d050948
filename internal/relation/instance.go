package relation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Tuple is one row of a relation. Values are stored as strings regardless of
// the declared attribute type; the learning algorithms treat them as opaque
// constants and only the similarity operator interprets their content.
type Tuple struct {
	Relation string
	Values   []string
}

// NewTuple constructs a tuple.
func NewTuple(rel string, values ...string) Tuple {
	return Tuple{Relation: rel, Values: values}
}

// Key returns a canonical identity for the tuple (relation plus values).
// Each value is length-prefixed, so no choice of value bytes — including
// separator-looking characters — can make two distinct tuples share a key.
func (t Tuple) Key() string {
	n := len(t.Relation) + 2
	for _, v := range t.Values {
		n += len(v) + 6
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(t.Relation)
	b.WriteByte('(')
	for _, v := range t.Values {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	b.WriteByte(')')
	return b.String()
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	v := make([]string, len(t.Values))
	copy(v, t.Values)
	return Tuple{Relation: t.Relation, Values: v}
}

// Equal reports whether two tuples are identical.
func (t Tuple) Equal(o Tuple) bool {
	if t.Relation != o.Relation || len(t.Values) != len(o.Values) {
		return false
	}
	for i := range t.Values {
		if t.Values[i] != o.Values[i] {
			return false
		}
	}
	return true
}

// String renders the tuple.
func (t Tuple) String() string {
	return fmt.Sprintf("%s(%s)", t.Relation, strings.Join(t.Values, ", "))
}

// relData is the columnar storage of one relation: one []uint32 column per
// attribute (interned value IDs, indexed by row position) plus a per-attribute
// hash index from value ID to row positions.
//
// The index is built on the first read that needs it (a selection or
// DistinctValues), not on Insert, so an instance that is generated and
// never queried pays nothing for it. Once built, Insert, ReplaceValue and
// SetValueAt keep it up to date. indexed is the publication flag of the
// double-checked build: concurrent readers may race to build it (the
// single-writer model allows any number of readers), mu serializes them.
type relData struct {
	rows    int
	cols    [][]uint32
	mu      sync.Mutex
	indexed atomic.Bool
	index   []map[uint32][]int
}

// ensureIndex returns the per-attribute index, building it from the
// columns on first use. A scan lists each value's positions in row order,
// which is the order incremental maintenance produces for an instance that
// has only been inserted into; the mutations build the index before they
// first rewrite a value, so the orders they produce are kept.
func (rd *relData) ensureIndex() []map[uint32][]int {
	if rd.indexed.Load() {
		return rd.index
	}
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if !rd.indexed.Load() {
		rd.index = make([]map[uint32][]int, len(rd.cols))
		for a, col := range rd.cols {
			idx := make(map[uint32][]int)
			for p, id := range col {
				idx[id] = append(idx[id], p)
			}
			rd.index[a] = idx
		}
		rd.indexed.Store(true)
	}
	return rd.index
}

// Instance is an in-memory database instance of a schema. Values are interned
// to dense uint32 IDs through a per-instance Interner and tuples are stored
// as columnar per-attribute ID arrays. A per-relation, per-attribute hash
// index from value ID to row positions, built on first read, answers the
// selections σ_{A∈M}(R) issued by bottom-clause construction (Algorithm 2)
// without scanning, and duplicate probes and selections compare integers
// instead of hashing strings. The public API stays string-based; ID-level
// accessors (SelectPositions, RowIDs, TupleAt) expose the interned layer to
// hot paths.
type Instance struct {
	schema *Schema
	intern *Interner
	rels   map[string]*relData
}

// NewInstance creates an empty instance of the given schema.
func NewInstance(schema *Schema) *Instance {
	return &Instance{
		schema: schema,
		intern: NewInterner(),
		rels:   make(map[string]*relData),
	}
}

// Schema returns the schema the instance conforms to.
func (in *Instance) Schema() *Schema { return in.schema }

// Interner returns the instance's value interner. Callers must not mutate it
// concurrently with instance writes.
func (in *Instance) Interner() *Interner { return in.intern }

// data returns the columnar storage of rel, creating it on first insert.
func (in *Instance) data(rel string, arity int) *relData {
	rd := in.rels[rel]
	if rd == nil {
		rd = &relData{cols: make([][]uint32, arity)}
		in.rels[rel] = rd
	}
	return rd
}

// Insert adds a tuple to the named relation. It returns an error when the
// relation is unknown or the arity does not match the schema.
func (in *Instance) Insert(rel string, values ...string) error {
	r := in.schema.Relation(rel)
	if r == nil {
		return fmt.Errorf("relation: insert into unknown relation %q", rel)
	}
	if len(values) != r.Arity() {
		return fmt.Errorf("relation: insert into %q: got %d values, want %d", rel, len(values), r.Arity())
	}
	rd := in.data(rel, r.Arity())
	pos := rd.rows
	indexed := rd.indexed.Load()
	for a, v := range values {
		id := in.intern.Intern(v)
		rd.cols[a] = append(rd.cols[a], id)
		if indexed {
			rd.index[a][id] = append(rd.index[a][id], pos)
		}
	}
	rd.rows++
	return nil
}

// MustInsert inserts and panics on error; intended for generators and tests.
func (in *Instance) MustInsert(rel string, values ...string) {
	if err := in.Insert(rel, values...); err != nil {
		panic(err)
	}
}

// TupleAt materializes the tuple at a row position of a relation. The
// returned tuple owns its Values slice.
func (in *Instance) TupleAt(rel string, pos int) Tuple {
	rd := in.rels[rel]
	values := make([]string, len(rd.cols))
	for a := range rd.cols {
		values[a] = in.intern.Value(rd.cols[a][pos])
	}
	return Tuple{Relation: rel, Values: values}
}

// RowIDs appends the interned value IDs of the row at pos to dst and returns
// the extended slice. It is the allocation-free way to key or compare rows.
func (in *Instance) RowIDs(dst []uint32, rel string, pos int) []uint32 {
	rd := in.rels[rel]
	for a := range rd.cols {
		dst = append(dst, rd.cols[a][pos])
	}
	return dst
}

// Tuples returns the tuples of a relation, materialized from the columnar
// storage in row order. The returned slice is a snapshot: it does not observe
// later mutations of the instance.
func (in *Instance) Tuples(rel string) []Tuple {
	rd := in.rels[rel]
	if rd == nil || rd.rows == 0 {
		return nil
	}
	out := make([]Tuple, rd.rows)
	for p := 0; p < rd.rows; p++ {
		out[p] = in.TupleAt(rel, p)
	}
	return out
}

// Count returns the number of tuples in a relation.
func (in *Instance) Count(rel string) int {
	rd := in.rels[rel]
	if rd == nil {
		return 0
	}
	return rd.rows
}

// TotalTuples returns the number of tuples across all relations.
func (in *Instance) TotalTuples() int {
	total := 0
	for _, rd := range in.rels {
		total += rd.rows
	}
	return total
}

// SelectPositions returns the row positions of rel whose attribute at
// position attr holds the interned value id, using the ID-keyed hash index.
// An id the instance never assigned selects nothing. The returned slice is
// owned by the instance and must not be modified.
func (in *Instance) SelectPositions(rel string, attr int, id uint32) []int {
	rd := in.rels[rel]
	if rd == nil || attr < 0 || attr >= len(rd.cols) {
		return nil
	}
	return rd.ensureIndex()[attr][id]
}

// DistinctValues returns the distinct values of an attribute, sorted.
func (in *Instance) DistinctValues(rel string, attr int) []string {
	rd := in.rels[rel]
	if rd == nil || attr < 0 || attr >= len(rd.cols) {
		return nil
	}
	idx := rd.ensureIndex()[attr]
	out := make([]string, 0, len(idx))
	for id := range idx {
		out = append(out, in.intern.Value(id))
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the instance (interner, columns and, where
// built, indexes). Repairs and baselines that modify data operate on clones
// so the original dirty instance is preserved.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		schema: in.schema,
		intern: in.intern.Clone(),
		rels:   make(map[string]*relData, len(in.rels)),
	}
	for rel, rd := range in.rels {
		nrd := &relData{
			rows: rd.rows,
			cols: make([][]uint32, len(rd.cols)),
		}
		for a := range rd.cols {
			nrd.cols[a] = append([]uint32(nil), rd.cols[a]...)
		}
		if rd.indexed.Load() {
			nrd.index = make([]map[uint32][]int, len(rd.index))
			for a := range rd.index {
				nrd.index[a] = make(map[uint32][]int, len(rd.index[a]))
				for id, positions := range rd.index[a] {
					nrd.index[a][id] = append([]int(nil), positions...)
				}
			}
			nrd.indexed.Store(true)
		}
		out.rels[rel] = nrd
	}
	return out
}

// ReplaceValue rewrites every occurrence of old with new in the given
// attribute of the given relation, rebuilding the affected index entry. It
// returns the number of tuple fields rewritten. It is used when enforcing
// MDs and repairing CFD violations on materialized instances.
func (in *Instance) ReplaceValue(rel string, attr int, old, new string) int {
	rd := in.rels[rel]
	if rd == nil || attr < 0 || attr >= len(rd.cols) || old == new {
		return 0
	}
	oldID, ok := in.intern.Lookup(old)
	if !ok {
		return 0
	}
	// The old positions go after the new value's: the index must exist
	// before the rewrite, since a scan would list them in row order.
	index := rd.ensureIndex()
	positions := index[attr][oldID]
	if len(positions) == 0 {
		return 0
	}
	newID := in.intern.Intern(new)
	for _, p := range positions {
		rd.cols[attr][p] = newID
	}
	delete(index[attr], oldID)
	index[attr][newID] = append(index[attr][newID], positions...)
	return len(positions)
}

// SetValueAt rewrites a single tuple field, keeping the index consistent.
// The tuple is identified by its position in the relation's row order.
func (in *Instance) SetValueAt(rel string, pos, attr int, value string) error {
	rd := in.rels[rel]
	if rd == nil || pos < 0 || pos >= rd.rows {
		return fmt.Errorf("relation: SetValueAt %s: position %d out of range", rel, pos)
	}
	r := in.schema.Relation(rel)
	if attr < 0 || attr >= r.Arity() {
		return fmt.Errorf("relation: SetValueAt %s: attribute %d out of range", rel, attr)
	}
	oldID := rd.cols[attr][pos]
	newID := in.intern.Intern(value)
	if oldID == newID {
		return nil
	}
	// Build the index before the rewrite: pos moves to the end of the new
	// value's entry, which a later scan would not reproduce.
	index := rd.ensureIndex()
	rd.cols[attr][pos] = newID
	// Remove pos from the old index entry, preserving the order of the rest.
	entry := index[attr][oldID]
	for i, p := range entry {
		if p == pos {
			entry = append(entry[:i], entry[i+1:]...)
			break
		}
	}
	if len(entry) == 0 {
		delete(index[attr], oldID)
	} else {
		index[attr][oldID] = entry
	}
	index[attr][newID] = append(index[attr][newID], pos)
	return nil
}

// Stats summarizes the instance: number of relations and tuples.
func (in *Instance) Stats() (relations, tuples int) {
	return in.schema.Len(), in.TotalTuples()
}

// String renders a compact summary of the instance.
func (in *Instance) String() string {
	var b strings.Builder
	for _, rel := range in.schema.Names() {
		fmt.Fprintf(&b, "%s: %d tuples\n", rel, in.Count(rel))
	}
	return b.String()
}
