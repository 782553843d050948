// Package constraints implements the declarative data-quality constraints
// DLearn learns with: matching dependencies (MDs, Section 2.2 of the paper)
// and conditional functional dependencies (CFDs, Section 2.3). It provides
// their normalized representations, validation against a schema, violation
// detection over instances and over groups of clause literals, and the
// consistency check for CFD sets.
package constraints

import (
	"fmt"
	"strings"

	"dlearn/internal/relation"
)

// AttrPair is one similarity comparison R1[A] ≈ R2[B] on the left-hand side
// of an MD.
type AttrPair struct {
	Left  string
	Right string
}

// MD is a matching dependency in the normalized form
//
//	R1[A1..An] ≈ R2[B1..Bn] → R1[C] ⇌ R2[D]
//
// i.e. with a single matched attribute pair on the right-hand side
// (Section 2.2 shows any MD is equivalent to a set of such MDs).
type MD struct {
	// Name identifies the MD in clauses, logs and benchmarks.
	Name string
	// LeftRel and RightRel are the two (distinct) relations the MD relates.
	LeftRel, RightRel string
	// Similar are the attribute pairs compared with ≈ on the left-hand side.
	Similar []AttrPair
	// MatchLeft and MatchRight are the attributes identified (⇌) when the
	// left-hand side holds.
	MatchLeft, MatchRight string
}

// NewMD builds a normalized MD. The common case — the matched pair is also
// the compared pair — is obtained by passing the same attribute names in
// Similar and Match*.
func NewMD(name, leftRel, rightRel string, similar []AttrPair, matchLeft, matchRight string) MD {
	return MD{
		Name:       name,
		LeftRel:    leftRel,
		RightRel:   rightRel,
		Similar:    similar,
		MatchLeft:  matchLeft,
		MatchRight: matchRight,
	}
}

// SimpleMD builds the common single-attribute MD
// leftRel[attr] ≈ rightRel[attr'] → leftRel[attr] ⇌ rightRel[attr'].
func SimpleMD(name, leftRel, leftAttr, rightRel, rightAttr string) MD {
	return NewMD(name, leftRel, rightRel,
		[]AttrPair{{Left: leftAttr, Right: rightAttr}}, leftAttr, rightAttr)
}

// Validate checks that the MD refers to existing relations and attributes
// and that compared/matched attributes are comparable (same domain).
func (m MD) Validate(schema *relation.Schema) error {
	lr := schema.Relation(m.LeftRel)
	rr := schema.Relation(m.RightRel)
	if lr == nil {
		return fmt.Errorf("constraints: MD %s: unknown relation %q", m.Name, m.LeftRel)
	}
	if rr == nil {
		return fmt.Errorf("constraints: MD %s: unknown relation %q", m.Name, m.RightRel)
	}
	if m.LeftRel == m.RightRel {
		return fmt.Errorf("constraints: MD %s: MDs are defined over distinct relations", m.Name)
	}
	if len(m.Similar) == 0 {
		return fmt.Errorf("constraints: MD %s: empty left-hand side", m.Name)
	}
	// Note: an MD itself declares that its compared attributes are
	// comparable, so attributes from different domains (e.g. imdb_title and
	// omdb_title) may legitimately appear on its left-hand side. Validation
	// therefore only checks that the referenced attributes exist.
	check := func(rel *relation.Relation, attr string) (relation.Attribute, error) {
		i := rel.AttrIndex(attr)
		if i < 0 {
			return relation.Attribute{}, fmt.Errorf("constraints: MD %s: relation %s has no attribute %q", m.Name, rel.Name, attr)
		}
		return rel.Attribute(i), nil
	}
	for _, p := range m.Similar {
		if _, err := check(lr, p.Left); err != nil {
			return err
		}
		if _, err := check(rr, p.Right); err != nil {
			return err
		}
	}
	if _, err := check(lr, m.MatchLeft); err != nil {
		return err
	}
	if _, err := check(rr, m.MatchRight); err != nil {
		return err
	}
	return nil
}

// RightAttrIndexes resolves the compared attributes of the right relation to
// positions.
func (m MD) RightAttrIndexes(schema *relation.Schema) []int {
	r := schema.Relation(m.RightRel)
	out := make([]int, len(m.Similar))
	for i, p := range m.Similar {
		out[i] = r.AttrIndex(p.Right)
	}
	return out
}

// MatchIndexes resolves the matched (⇌) attributes to positions.
func (m MD) MatchIndexes(schema *relation.Schema) (left, right int) {
	return schema.Relation(m.LeftRel).AttrIndex(m.MatchLeft),
		schema.Relation(m.RightRel).AttrIndex(m.MatchRight)
}

// Reverse returns the MD with its two sides swapped. MDs are symmetric for
// the purposes of similarity search during bottom-clause construction.
func (m MD) Reverse() MD {
	sim := make([]AttrPair, len(m.Similar))
	for i, p := range m.Similar {
		sim[i] = AttrPair{Left: p.Right, Right: p.Left}
	}
	return MD{
		Name:       m.Name,
		LeftRel:    m.RightRel,
		RightRel:   m.LeftRel,
		Similar:    sim,
		MatchLeft:  m.MatchRight,
		MatchRight: m.MatchLeft,
	}
}

// String renders the MD in the paper's notation.
func (m MD) String() string {
	lhs := make([]string, len(m.Similar))
	for i, p := range m.Similar {
		lhs[i] = fmt.Sprintf("%s[%s] ~ %s[%s]", m.LeftRel, p.Left, m.RightRel, p.Right)
	}
	return fmt.Sprintf("%s: %s -> %s[%s] <=> %s[%s]",
		m.Name, strings.Join(lhs, ", "), m.LeftRel, m.MatchLeft, m.RightRel, m.MatchRight)
}

// ValidateMDs validates a set of MDs and checks their names are unique.
func ValidateMDs(schema *relation.Schema, mds []MD) error {
	seen := make(map[string]bool, len(mds))
	for _, m := range mds {
		if m.Name == "" {
			return fmt.Errorf("constraints: MD with empty name")
		}
		if seen[m.Name] {
			return fmt.Errorf("constraints: duplicate MD name %q", m.Name)
		}
		seen[m.Name] = true
		if err := m.Validate(schema); err != nil {
			return err
		}
	}
	return nil
}
