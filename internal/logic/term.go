// Package logic provides the first-order logic layer used by DLearn:
// terms, literals (including the similarity and repair literals introduced by
// the paper), Horn clauses, definitions, and substitutions.
//
// The hypothesis language follows Section 3.2 of "Learning Over Dirty Data
// Without Cleaning" (Picado et al., SIGMOD 2020): Horn clauses over schema
// relations extended with similarity literals (x ≈ y), repair literals
// V_c(x, v_x) that compactly represent repair operations induced by matching
// dependencies (MDs) and conditional functional dependencies (CFDs), and
// restriction literals (=, ≠, ≈) that relate the replacement variables.
package logic

import (
	"fmt"
	"strings"
)

// Term is a variable or a constant appearing as an argument of a literal.
// Terms are small value types and are comparable, so they can be used as map
// keys in substitutions and indexes.
type Term struct {
	// Name is the variable name (for variables) or the constant value (for
	// constants).
	Name string
	// Var reports whether the term is a variable.
	Var bool
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{Name: name, Var: true} }

// Const returns a constant term with the given value.
func Const(value string) Term { return Term{Name: value, Var: false} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Var }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return !t.Var }

// String renders the term; constants are quoted when they contain spaces or
// commas so clauses remain readable and unambiguous.
func (t Term) String() string {
	if t.Var {
		return t.Name
	}
	if strings.ContainsAny(t.Name, " ,()'") || t.Name == "" {
		return fmt.Sprintf("%q", t.Name)
	}
	return t.Name
}

// appendKey appends the term's variable flag and length-prefixed name.
func (t Term) appendKey(dst []byte) []byte {
	if t.Var {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return appendString(dst, t.Name)
}

// Substitution maps variable names to terms. Applying a substitution to a
// clause replaces every occurrence of a bound variable with its image.
type Substitution map[string]Term

// Clone returns a copy of the substitution that can be extended without
// affecting the receiver.
func (s Substitution) Clone() Substitution {
	c := make(Substitution, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Apply returns the image of t under the substitution. Constants and unbound
// variables are returned unchanged.
func (s Substitution) Apply(t Term) Term {
	if !t.Var {
		return t
	}
	if img, ok := s[t.Name]; ok {
		return img
	}
	return t
}

// String renders the substitution deterministically (sorted by variable).
func (s Substitution) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sortStrings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s/%s", k, s[k]))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// sortStrings sorts in place without importing sort in every file.
func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// VarCounter generates fresh variable names (v0, v1, ...). It is not safe for
// concurrent use; each clause-construction task owns its own counter.
type VarCounter struct {
	next int
	pfx  string
}

// NewVarCounter returns a counter that generates names with the given prefix.
func NewVarCounter(prefix string) *VarCounter {
	if prefix == "" {
		prefix = "v"
	}
	return &VarCounter{pfx: prefix}
}

// Fresh returns the next unused variable term.
func (c *VarCounter) Fresh() Term {
	t := Var(fmt.Sprintf("%s%d", c.pfx, c.next))
	c.next++
	return t
}
