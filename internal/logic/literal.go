package logic

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Kind distinguishes the literal forms of the extended hypothesis language.
type Kind int

const (
	// RelationLit is an atom over a schema relation, R(t1, ..., tn).
	RelationLit Kind = iota
	// EqualityLit is a restriction or induced-equality literal t1 = t2.
	EqualityLit
	// InequalityLit is a restriction literal t1 ≠ t2.
	InequalityLit
	// SimilarityLit is a similarity literal t1 ≈ t2 added for MD matches.
	SimilarityLit
	// RepairLit is a repair literal V_c(x, v_x) representing the repair
	// operation "replace x with v_x when condition c holds".
	RepairLit
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case RelationLit:
		return "relation"
	case EqualityLit:
		return "equality"
	case InequalityLit:
		return "inequality"
	case SimilarityLit:
		return "similarity"
	case RepairLit:
		return "repair"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// RepairOrigin records which kind of dependency induced a repair literal.
type RepairOrigin int

const (
	// OriginNone marks literals that are not repair literals.
	OriginNone RepairOrigin = iota
	// OriginMD marks repair literals induced by a matching dependency.
	OriginMD
	// OriginCFD marks repair literals induced by a CFD violation.
	OriginCFD
)

// String returns the origin name.
func (o RepairOrigin) String() string {
	switch o {
	case OriginNone:
		return "none"
	case OriginMD:
		return "md"
	case OriginCFD:
		return "cfd"
	default:
		return fmt.Sprintf("RepairOrigin(%d)", int(o))
	}
}

// CondOp is a comparison operator usable in a repair-literal condition.
type CondOp int

const (
	// CondEq requires the two terms to be equal.
	CondEq CondOp = iota
	// CondNeq requires the two terms to be distinct.
	CondNeq
	// CondSim requires the two terms to be similar (≈).
	CondSim
)

// String returns the operator symbol.
func (o CondOp) String() string {
	switch o {
	case CondEq:
		return "="
	case CondNeq:
		return "!="
	case CondSim:
		return "~"
	default:
		return fmt.Sprintf("CondOp(%d)", int(o))
	}
}

// Condition is one conjunct of the condition c of a repair literal V_c(x,vx).
type Condition struct {
	Op   CondOp
	L, R Term
}

// String renders the condition.
func (c Condition) String() string {
	return fmt.Sprintf("%s%s%s", c.L, c.Op, c.R)
}

// Rename returns the condition with its variable terms renamed through s.
func (c Condition) Rename(s Substitution) Condition {
	return Condition{Op: c.Op, L: s.Apply(c.L), R: s.Apply(c.R)}
}

// Literal is a literal of the extended language. The zero value is not a
// valid literal; use the constructor helpers below.
type Literal struct {
	Kind Kind
	// Pred is the relation symbol for RelationLit literals. For repair
	// literals it is a synthetic symbol naming the dependency that induced
	// the literal (useful for ordering and debugging); other kinds leave it
	// empty.
	Pred string
	// Args are the literal arguments. Relation literals have one argument
	// per attribute; built-in and repair literals have exactly two.
	Args []Term
	// Cond is the condition c of a repair literal; empty otherwise.
	Cond []Condition
	// Origin records whether a repair literal came from an MD or a CFD.
	Origin RepairOrigin
	// Group names the repair operation a repair literal belongs to. The
	// repair literals of one group encode a single repair operation on the
	// underlying database (e.g. the pair V(x,vx), V(t,vt) of one MD match)
	// and are applied together when converting a clause to its repaired
	// clauses. Alternative fixes of the same CFD violation carry distinct
	// groups.
	Group string
	// Induced marks equality literals that were introduced when replacing
	// repeated occurrences of a variable or constant (Section 3.2); they are
	// removed from repaired clauses when they no longer connect schema
	// literals.
	Induced bool
}

// Rel constructs a relation literal.
func Rel(pred string, args ...Term) Literal {
	return Literal{Kind: RelationLit, Pred: pred, Args: args}
}

// Eq constructs an equality literal l = r.
func Eq(l, r Term) Literal {
	return Literal{Kind: EqualityLit, Args: []Term{l, r}}
}

// InducedEq constructs an induced equality literal l = r (Section 3.2).
func InducedEq(l, r Term) Literal {
	return Literal{Kind: EqualityLit, Args: []Term{l, r}, Induced: true}
}

// Neq constructs an inequality literal l ≠ r.
func Neq(l, r Term) Literal {
	return Literal{Kind: InequalityLit, Args: []Term{l, r}}
}

// Sim constructs a similarity literal l ≈ r.
func Sim(l, r Term) Literal {
	return Literal{Kind: SimilarityLit, Args: []Term{l, r}}
}

// Repair constructs a repair literal V_cond(target, replacement) with the
// given origin. name identifies the inducing dependency. The literal is
// placed in a group of its own (named after the dependency); use
// RepairInGroup when several literals form one repair operation.
func Repair(name string, origin RepairOrigin, target, replacement Term, cond ...Condition) Literal {
	return RepairInGroup(name, name, origin, target, replacement, cond...)
}

// RepairInGroup constructs a repair literal belonging to the named repair
// group. All literals of a group are applied together when producing
// repaired clauses.
func RepairInGroup(name, group string, origin RepairOrigin, target, replacement Term, cond ...Condition) Literal {
	return Literal{
		Kind:   RepairLit,
		Pred:   name,
		Args:   []Term{target, replacement},
		Cond:   cond,
		Origin: origin,
		Group:  group,
	}
}

// IsRelation reports whether l is a relation literal.
func (l Literal) IsRelation() bool { return l.Kind == RelationLit }

// IsRepair reports whether l is a repair literal.
func (l Literal) IsRepair() bool { return l.Kind == RepairLit }

// Clone returns a deep copy of the literal.
func (l Literal) Clone() Literal {
	c := l
	c.Args = make([]Term, len(l.Args))
	copy(c.Args, l.Args)
	if len(l.Cond) > 0 {
		c.Cond = make([]Condition, len(l.Cond))
		copy(c.Cond, l.Cond)
	}
	return c
}

// Rename returns the literal with every term replaced by its image under s.
// Conditions of repair literals are renamed as well.
func (l Literal) Rename(s Substitution) Literal {
	c := l.Clone()
	for i, a := range c.Args {
		c.Args[i] = s.Apply(a)
	}
	for i, cond := range c.Cond {
		c.Cond[i] = cond.Rename(s)
	}
	return c
}

// AllTerms returns argument terms plus condition terms for repair literals.
func (l Literal) AllTerms() []Term {
	if len(l.Cond) == 0 {
		return l.Args
	}
	out := make([]Term, 0, len(l.Args)+2*len(l.Cond))
	out = append(out, l.Args...)
	for _, c := range l.Cond {
		out = append(out, c.L, c.R)
	}
	return out
}

// Equal reports whether two literals are syntactically identical.
func (l Literal) Equal(o Literal) bool {
	if l.Kind != o.Kind || l.Pred != o.Pred || l.Origin != o.Origin ||
		l.Group != o.Group ||
		len(l.Args) != len(o.Args) || len(l.Cond) != len(o.Cond) {
		return false
	}
	for i := range l.Args {
		if l.Args[i] != o.Args[i] {
			return false
		}
	}
	for i := range l.Cond {
		if l.Cond[i] != o.Cond[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical identity for the literal, usable for
// de-duplication in sets: see AppendKey.
func (l Literal) Key() string { return string(l.AppendKey(nil)) }

// AppendKey appends the literal's canonical binary key to dst and returns
// the extended slice. The key encodes every field — kind, origin, the
// Induced flag, predicate, group, and each argument and condition term with
// its variable flag — with length prefixes, so two literals have the same
// key iff they are field for field equal, and no key is a prefix of
// another. (The rendered String does not separate Var("g") from
// Const("g"), nor an induced equality from a plain one.)
func (l Literal) AppendKey(dst []byte) []byte {
	induced := byte(0)
	if l.Induced {
		induced = 1
	}
	dst = append(dst, byte(l.Kind), byte(l.Origin), induced)
	dst = appendString(dst, l.Pred)
	dst = appendString(dst, l.Group)
	dst = binary.AppendUvarint(dst, uint64(len(l.Args)))
	for _, t := range l.Args {
		dst = t.appendKey(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(len(l.Cond)))
	for _, c := range l.Cond {
		dst = append(dst, byte(c.Op))
		dst = c.L.appendKey(dst)
		dst = c.R.appendKey(dst)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// String renders the literal in Datalog-like syntax.
func (l Literal) String() string {
	switch l.Kind {
	case RelationLit:
		return fmt.Sprintf("%s(%s)", l.Pred, joinTerms(l.Args))
	case EqualityLit:
		return fmt.Sprintf("%s = %s", l.Args[0], l.Args[1])
	case InequalityLit:
		return fmt.Sprintf("%s != %s", l.Args[0], l.Args[1])
	case SimilarityLit:
		return fmt.Sprintf("%s ~ %s", l.Args[0], l.Args[1])
	case RepairLit:
		conds := make([]string, len(l.Cond))
		for i, c := range l.Cond {
			conds[i] = c.String()
		}
		tag := "V"
		if l.Origin == OriginCFD {
			tag = "Vcfd"
		}
		name := l.Pred
		if l.Group != "" && l.Group != l.Pred {
			name = l.Pred + "/" + l.Group
		}
		if len(conds) == 0 {
			return fmt.Sprintf("%s[%s](%s)", tag, name, joinTerms(l.Args))
		}
		return fmt.Sprintf("%s[%s|%s](%s)", tag, name, strings.Join(conds, "&"), joinTerms(l.Args))
	default:
		return fmt.Sprintf("?%d(%s)", int(l.Kind), joinTerms(l.Args))
	}
}

func joinTerms(ts []Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}
