// Package relation implements the in-memory relational substrate DLearn
// learns over. The paper runs on top of VoltDB; this package provides the
// same access paths DLearn needs — indexed selections by attribute value,
// whole-relation scans, and cheap snapshots for generating repaired
// instances — using a column-typed, hash-indexed in-memory store.
package relation

import (
	"fmt"
)

// Type is the data type of an attribute.
type Type int

const (
	// String attributes hold arbitrary text (titles, names, categories).
	String Type = iota
	// Int attributes hold integer-valued data (years, counts).
	Int
	// Float attributes hold real-valued data (prices, weights).
	Float
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Attribute describes one column of a relation. Domain names which values
// are comparable across relations: two attributes are comparable (joinable
// during bottom-clause construction, and usable in an MD) iff they share the
// same Domain (Section 2.2 of the paper).
//
// Constant plays the role of an ILP mode declaration: values of a Constant
// attribute are kept as constants when a bottom clause is variabilized
// (e.g. genres, categories, months), so learned clauses can select on them —
// the paper's example definitions contain such constants
// (mov2genres(y, 'comedy'), amazon_category(x, 'ComputersAccessories')).
// Non-constant attributes (keys, titles) are turned into variables and act
// as join points.
type Attribute struct {
	Name     string
	Type     Type
	Domain   string
	Constant bool
}

// Attr is shorthand for a string attribute in the given domain.
func Attr(name, domain string) Attribute {
	return Attribute{Name: name, Type: String, Domain: domain}
}

// ConstAttr is shorthand for a string attribute whose values stay constants
// in learned clauses (an ILP "#" mode).
func ConstAttr(name, domain string) Attribute {
	return Attribute{Name: name, Type: String, Domain: domain, Constant: true}
}

// Relation describes a relation symbol: its name and attributes.
type Relation struct {
	Name  string
	Attrs []Attribute

	attrIdx map[string]int
}

// NewRelation builds a relation descriptor.
func NewRelation(name string, attrs ...Attribute) *Relation {
	r := &Relation{Name: name, Attrs: attrs, attrIdx: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		r.attrIdx[a.Name] = i
	}
	return r
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// AttrIndex returns the position of the named attribute, or -1 when absent.
func (r *Relation) AttrIndex(name string) int {
	if r.attrIdx == nil {
		r.attrIdx = make(map[string]int, len(r.Attrs))
		for i, a := range r.Attrs {
			r.attrIdx[a.Name] = i
		}
	}
	if i, ok := r.attrIdx[name]; ok {
		return i
	}
	return -1
}

// Attribute returns the attribute descriptor at position i.
func (r *Relation) Attribute(i int) Attribute { return r.Attrs[i] }

// String renders the relation schema.
func (r *Relation) String() string {
	s := r.Name + "("
	for i, a := range r.Attrs {
		if i > 0 {
			s += ", "
		}
		s += a.Name
	}
	return s + ")"
}

// Schema is a finite set of relation symbols.
type Schema struct {
	rels  map[string]*Relation
	order []string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{rels: make(map[string]*Relation)}
}

// Add registers a relation. It returns an error if a relation with the same
// name already exists.
func (s *Schema) Add(r *Relation) error {
	if _, ok := s.rels[r.Name]; ok {
		return fmt.Errorf("relation: duplicate relation %q", r.Name)
	}
	s.rels[r.Name] = r
	s.order = append(s.order, r.Name)
	return nil
}

// MustAdd registers a relation and panics on duplicates; it is intended for
// static schema construction in tests and generators.
func (s *Schema) MustAdd(r *Relation) {
	if err := s.Add(r); err != nil {
		panic(err)
	}
}

// Relation returns the relation descriptor with the given name, or nil.
func (s *Schema) Relation(name string) *Relation { return s.rels[name] }

// Has reports whether a relation with the given name exists.
func (s *Schema) Has(name string) bool { _, ok := s.rels[name]; return ok }

// Names returns the relation names in insertion order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Relations returns the relation descriptors in insertion order.
func (s *Schema) Relations() []*Relation {
	out := make([]*Relation, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.rels[n])
	}
	return out
}

// Len returns the number of relations in the schema.
func (s *Schema) Len() int { return len(s.order) }

// AttrRef identifies an attribute by relation name and position.
type AttrRef struct {
	Relation string
	Attr     int
}

// String renders the reference as relation[attrIndex].
func (a AttrRef) String() string { return fmt.Sprintf("%s[%d]", a.Relation, a.Attr) }
