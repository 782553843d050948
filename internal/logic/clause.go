package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Clause is a Horn clause Head ← Body. The head is always a relation literal
// over the target relation; the body may contain relation, restriction and
// repair literals.
type Clause struct {
	Head Literal
	Body []Literal
}

// NewClause builds a clause from a head and body literals.
func NewClause(head Literal, body ...Literal) Clause {
	return Clause{Head: head, Body: body}
}

// Clone returns a deep copy of the clause.
func (c Clause) Clone() Clause {
	out := Clause{Head: c.Head.Clone(), Body: make([]Literal, len(c.Body))}
	for i, l := range c.Body {
		out.Body[i] = l.Clone()
	}
	return out
}

// Rename applies the substitution to every literal of the clause.
func (c Clause) Rename(s Substitution) Clause {
	out := Clause{Head: c.Head.Rename(s), Body: make([]Literal, len(c.Body))}
	for i, l := range c.Body {
		out.Body[i] = l.Rename(s)
	}
	return out
}

// Variables returns the set of variable names in the clause.
func (c Clause) Variables() map[string]bool {
	vars := c.Head.Variables()
	for _, l := range c.Body {
		for v := range l.Variables() {
			vars[v] = true
		}
	}
	return vars
}

// Length returns the number of body literals.
func (c Clause) Length() int { return len(c.Body) }

// Equal reports whether two clauses are syntactically identical (same head,
// same body literals in the same order).
func (c Clause) Equal(o Clause) bool {
	if !c.Head.Equal(o.Head) || len(c.Body) != len(o.Body) {
		return false
	}
	for i := range c.Body {
		if !c.Body[i].Equal(o.Body[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical identity for the clause that is insensitive to the
// order of body literals, useful for de-duplicating repaired clauses.
func (c Clause) Key() string {
	keys := make([]string, len(c.Body))
	for i, l := range c.Body {
		keys[i] = l.Key()
	}
	sort.Strings(keys)
	return c.Head.Key() + " <- " + strings.Join(keys, " & ")
}

// String renders the clause in Datalog syntax.
func (c Clause) String() string {
	if len(c.Body) == 0 {
		return c.Head.String() + "."
	}
	parts := make([]string, len(c.Body))
	for i, l := range c.Body {
		parts[i] = l.String()
	}
	return fmt.Sprintf("%s <- %s.", c.Head.String(), strings.Join(parts, ", "))
}

// connectionGraph captures which body literals share variables, treating the
// head as node -1.
type connectionGraph struct {
	varToLits map[string][]int
}

func buildConnectionGraph(c Clause) connectionGraph {
	g := connectionGraph{varToLits: make(map[string][]int)}
	for i, l := range c.Body {
		for v := range l.Variables() {
			g.varToLits[v] = append(g.varToLits[v], i)
		}
	}
	return g
}

// HeadConnected returns the indices of body literals that are head-connected:
// a literal is head-connected if it shares a variable with the head literal or
// with another head-connected literal (Section 2.1). Restriction and repair
// literals participate in connectivity through their variables.
func (c Clause) HeadConnected() []int {
	g := buildConnectionGraph(c)
	reached := make([]bool, len(c.Body))
	queueVars := make([]string, 0, len(c.Head.Variables()))
	seenVar := make(map[string]bool)
	for v := range c.Head.Variables() {
		queueVars = append(queueVars, v)
		seenVar[v] = true
	}
	for len(queueVars) > 0 {
		v := queueVars[0]
		queueVars = queueVars[1:]
		for _, li := range g.varToLits[v] {
			if reached[li] {
				continue
			}
			reached[li] = true
			for nv := range c.Body[li].Variables() {
				if !seenVar[nv] {
					seenVar[nv] = true
					queueVars = append(queueVars, nv)
				}
			}
		}
	}
	var out []int
	for i, r := range reached {
		if r {
			out = append(out, i)
		}
	}
	return out
}

// PruneUnconnected returns a copy of the clause containing only
// head-connected body literals, preserving their original order. It then
// drops restriction and repair literals none of whose variables appear in a
// remaining relation literal or in the head (the clean-up step of
// Section 3.2).
func (c Clause) PruneUnconnected() Clause {
	connected := c.HeadConnected()
	keep := make(map[int]bool, len(connected))
	for _, i := range connected {
		keep[i] = true
	}
	pruned := Clause{Head: c.Head.Clone()}
	for i, l := range c.Body {
		if keep[i] {
			pruned.Body = append(pruned.Body, l.Clone())
		}
	}
	return pruned.DropDanglingAuxiliaries()
}

// DropDanglingAuxiliaries removes repair literals that no longer reference
// any term occurring in a schema (relation) literal or in the head, and then
// removes restriction literals that reference neither an anchored variable
// nor a surviving repair literal's variable. Relation literals are always
// kept. On a repaired clause (no repair literals left) this is exactly the
// clean-up step of Section 3.2.
func (c Clause) DropDanglingAuxiliaries() Clause {
	anchored := make(map[string]bool)
	for v := range c.Head.Variables() {
		anchored[v] = true
	}
	for _, l := range c.Body {
		if l.IsRelation() {
			for v := range l.Variables() {
				anchored[v] = true
			}
		}
	}
	// First pass: decide which repair literals survive (their target or
	// replacement touches an anchored variable) and extend the anchor set
	// with their variables so their restriction literals survive too.
	keepRepair := make(map[int]bool)
	for i, l := range c.Body {
		if !l.IsRepair() {
			continue
		}
		for _, a := range l.Args {
			if a.Var && anchored[a.Name] {
				keepRepair[i] = true
				break
			}
			// Repair literals targeting constants (ground bottom clauses)
			// are kept as long as a relation literal still carries that
			// constant; approximating that check, constant-targeting repair
			// literals are always kept.
			if a.IsConst() {
				keepRepair[i] = true
				break
			}
		}
	}
	for i := range keepRepair {
		for v := range c.Body[i].Variables() {
			anchored[v] = true
		}
	}
	out := Clause{Head: c.Head.Clone()}
	for i, l := range c.Body {
		switch {
		case l.IsRelation():
			out.Body = append(out.Body, l.Clone())
		case l.IsRepair():
			if keepRepair[i] {
				out.Body = append(out.Body, l.Clone())
			}
		default:
			keep := false
			for v := range l.Variables() {
				if anchored[v] {
					keep = true
					break
				}
			}
			// Fully ground restriction literals (possible in ground bottom
			// clauses) are kept; they carry constant-level constraints.
			if len(l.Variables()) == 0 {
				keep = true
			}
			if keep {
				out.Body = append(out.Body, l.Clone())
			}
		}
	}
	return out
}

// ConnectedRepairLiterals returns the indices of repair literals in c that
// are connected to the body literal at index li in the sense of Definition
// 4.4: a repair literal V_c(x, vx) is connected to a non-repair literal L iff
// x or vx appears in L, or it appears in the arguments of a repair literal
// connected to L. Connectivity is tracked over terms (both variables and
// constants) so it also applies to ground bottom clauses.
func (c Clause) ConnectedRepairLiterals(li int) []int {
	target := c.Body[li]
	if target.IsRepair() {
		return nil
	}
	terms := make(map[Term]bool)
	for _, t := range target.Terms() {
		terms[t] = true
	}
	// Fixed-point: keep adding repair literals whose arguments intersect the
	// growing term set contributed by already-connected repair literals.
	connected := make(map[int]bool)
	changed := true
	for changed {
		changed = false
		for i, l := range c.Body {
			if !l.IsRepair() || connected[i] {
				continue
			}
			for _, a := range l.Args {
				if terms[a] {
					connected[i] = true
					changed = true
					for _, b := range l.Args {
						terms[b] = true
					}
					break
				}
			}
		}
	}
	out := make([]int, 0, len(connected))
	for i := range connected {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Definition is a set of clauses with the same head relation (a union of
// conjunctive queries / non-recursive Datalog program).
type Definition struct {
	// Target is the name of the relation being defined.
	Target string
	// Clauses are the learned clauses.
	Clauses []Clause
	// Stats holds optional per-clause training statistics, parallel to
	// Clauses. It may be nil or shorter than Clauses.
	Stats []ClauseStats
}

// ClauseStats records training-set coverage of a learned clause.
type ClauseStats struct {
	PositivesCovered int
	NegativesCovered int
	Score            int
}

// Add appends a clause (and its stats) to the definition.
func (d *Definition) Add(c Clause, stats ClauseStats) {
	d.Clauses = append(d.Clauses, c)
	d.Stats = append(d.Stats, stats)
}

// Len returns the number of clauses in the definition.
func (d *Definition) Len() int { return len(d.Clauses) }

// String renders the definition, one clause per line, with coverage stats
// when available.
func (d *Definition) String() string {
	if d == nil || len(d.Clauses) == 0 {
		return fmt.Sprintf("%s :- <empty definition>", d.targetName())
	}
	var b strings.Builder
	for i, c := range d.Clauses {
		b.WriteString(c.String())
		if i < len(d.Stats) {
			fmt.Fprintf(&b, "  (pos=%d, neg=%d)", d.Stats[i].PositivesCovered, d.Stats[i].NegativesCovered)
		}
		if i != len(d.Clauses)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func (d *Definition) targetName() string {
	if d == nil {
		return "<nil>"
	}
	return d.Target
}
