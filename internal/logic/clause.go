package logic

import (
	"bytes"
	"fmt"
	"slices"
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
// order of body literals: the head's key followed by the body literals' keys
// (Literal.AppendKey) in sorted order. Two clauses have the same key iff
// they have the same head and the same multiset of body literals, field for
// field.
func (c Clause) Key() string {
	buf := c.Head.AppendKey(nil)
	headLen := len(buf)
	keys := make([][]byte, len(c.Body))
	for i, l := range c.Body {
		start := len(buf)
		buf = l.AppendKey(buf)
		keys[i] = buf[start:len(buf):len(buf)]
	}
	slices.SortFunc(keys, bytes.Compare)
	out := make([]byte, 0, len(buf))
	out = append(out, buf[:headLen]...)
	for _, k := range keys {
		out = append(out, k...)
	}
	return string(out)
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

// PrefixPruner maintains PruneUnconnected of a clause whose body grows one
// literal at a time, as the generalization scan of Section 4.2 builds it. A
// union-find over the variables of the pushed literals, with the head's
// variables in one class, tells which literals are head-connected without
// rebuilding a connection graph for every prefix; Pop undoes the last Push.
// A PrefixPruner is not safe for concurrent use.
type PrefixPruner struct {
	head Literal
	body []Literal
	// termIDs holds, for each AllTerms entry of each pushed literal in
	// order, the variable's dense id or -1 for a constant; literal i owns
	// termIDs[starts[i]:starts[i+1]].
	termIDs []int32
	starts  []int
	headIDs []int32
	vars    varTable
	// parent and size are the union-find (union by size, no path
	// compression, so a union undoes by resetting one parent); trail lists
	// the roots each union attached, and marks the trail length before each
	// Push.
	parent []int32
	size   []int32
	trail  []int32
	marks  []int

	// Scratch of Pruned.
	connected []int
	anchored  []bool
	keep      []bool
}

// NewPrefixPruner returns a pruner for clauses with the given head and an
// empty body.
func NewPrefixPruner(head Literal) *PrefixPruner {
	p := &PrefixPruner{head: head, starts: []int{0}, vars: make(varTable)}
	p.headIDs = p.vars.appendIDs(nil, head.AllTerms())
	p.unionAll(p.headIDs)
	return p
}

// unionAll merges the classes of the variables among ids, giving variables
// new to the union-find a class of their own first.
func (p *PrefixPruner) unionAll(ids []int32) {
	for len(p.parent) < len(p.vars) {
		p.parent = append(p.parent, int32(len(p.parent)))
		p.size = append(p.size, 1)
	}
	first := int32(-1)
	for _, id := range ids {
		switch {
		case id < 0:
		case first < 0:
			first = id
		default:
			p.union(first, id)
		}
	}
}

// varTable assigns dense ids to variable names in order of first sight.
type varTable map[string]int32

// appendIDs appends the dense id of each term (-1 for a constant) to dst.
func (v varTable) appendIDs(dst []int32, terms []Term) []int32 {
	for _, t := range terms {
		if !t.Var {
			dst = append(dst, -1)
			continue
		}
		id, ok := v[t.Name]
		if !ok {
			id = int32(len(v))
			v[t.Name] = id
		}
		dst = append(dst, id)
	}
	return dst
}

func (p *PrefixPruner) find(x int32) int32 {
	for p.parent[x] != x {
		x = p.parent[x]
	}
	return x
}

func (p *PrefixPruner) union(a, b int32) {
	ra, rb := p.find(a), p.find(b)
	if ra == rb {
		return
	}
	if p.size[ra] < p.size[rb] {
		ra, rb = rb, ra
	}
	p.parent[rb] = ra
	p.size[ra] += p.size[rb]
	p.trail = append(p.trail, rb)
}

// Push appends a literal to the body.
func (p *PrefixPruner) Push(l Literal) {
	p.marks = append(p.marks, len(p.trail))
	p.body = append(p.body, l)
	start := len(p.termIDs)
	p.termIDs = p.vars.appendIDs(p.termIDs, l.AllTerms())
	p.unionAll(p.termIDs[start:])
	p.starts = append(p.starts, len(p.termIDs))
}

// Pop removes the most recently pushed literal, undoing its unions.
func (p *PrefixPruner) Pop() {
	mark := p.marks[len(p.marks)-1]
	for len(p.trail) > mark {
		rb := p.trail[len(p.trail)-1]
		ra := p.parent[rb]
		p.size[ra] -= p.size[rb]
		p.parent[rb] = rb
		p.trail = p.trail[:len(p.trail)-1]
	}
	p.marks = p.marks[:len(p.marks)-1]
	p.body = p.body[:len(p.body)-1]
	p.starts = p.starts[:len(p.starts)-1]
	p.termIDs = p.termIDs[:p.starts[len(p.starts)-1]]
}

// ids returns the term ids of pushed literal i.
func (p *PrefixPruner) ids(i int) []int32 { return p.termIDs[p.starts[i]:p.starts[i+1]] }

// Pruned returns PruneUnconnected of the clause pushed so far. Its body
// literals share their argument slices with the pushed literals; callers
// that modify the result must Clone it first.
func (p *PrefixPruner) Pruned() Clause {
	out := Clause{Head: p.head}
	headRoot := int32(-1)
	for _, id := range p.headIDs {
		if id >= 0 {
			headRoot = p.find(id)
			break
		}
	}
	if headRoot < 0 {
		return out
	}
	// Head-connected literals: those with a variable in the head's class.
	p.connected = p.connected[:0]
	for i := range p.body {
		for _, id := range p.ids(i) {
			if id >= 0 {
				if p.find(id) == headRoot {
					p.connected = append(p.connected, i)
				}
				break
			}
		}
	}
	p.anchored = resetBools(p.anchored, len(p.parent))
	markVars(p.anchored, p.headIDs)
	p.keep = keepAnchored(p.body, p.connected, p.ids, p.anchored, p.keep)
	n := 0
	for _, i := range p.connected {
		if p.keep[i] {
			n++
		}
	}
	out.Body = make([]Literal, 0, n)
	for _, i := range p.connected {
		if p.keep[i] {
			out.Body = append(out.Body, p.body[i])
		}
	}
	return out
}

// PruneUnconnected returns a copy of the clause containing only
// head-connected body literals, preserving their original order: a literal
// is head-connected if it shares a variable with the head or with another
// head-connected literal (Section 2.1), and restriction and repair literals
// participate through their variables. It then drops restriction and repair
// literals none of whose variables appear in a remaining relation literal or
// in the head (the clean-up step of Section 3.2).
func (c Clause) PruneUnconnected() Clause {
	p := NewPrefixPruner(c.Head)
	for _, l := range c.Body {
		p.Push(l)
	}
	return p.Pruned().Clone()
}

// DropDanglingAuxiliaries removes repair literals that no longer reference
// any term occurring in a schema (relation) literal or in the head, and then
// removes restriction literals that reference neither an anchored variable
// nor a surviving repair literal's variable. Relation literals are always
// kept. On a repaired clause (no repair literals left) this is exactly the
// clean-up step of Section 3.2. The result shares its literals with c.
func (c Clause) DropDanglingAuxiliaries() Clause {
	vars := make(varTable)
	headIDs := vars.appendIDs(nil, c.Head.AllTerms())
	var flat []int32
	starts := make([]int, len(c.Body)+1)
	all := make([]int, len(c.Body))
	for i, l := range c.Body {
		flat = vars.appendIDs(flat, l.AllTerms())
		starts[i+1] = len(flat)
		all[i] = i
	}
	anchored := make([]bool, len(vars))
	markVars(anchored, headIDs)
	keep := keepAnchored(c.Body, all, func(i int) []int32 { return flat[starts[i]:starts[i+1]] }, anchored, nil)
	out := Clause{Head: c.Head}
	for i, l := range c.Body {
		if keep[i] {
			out.Body = append(out.Body, l)
		}
	}
	return out
}

// keepAnchored decides which of the literals body[i], i in idx (ascending),
// DropDanglingAuxiliaries keeps: keep, reusing its storage, is indexed like
// body. ids(i) gives the dense variable id of each AllTerms entry of
// body[i] (-1 for a constant); anchored arrives with the head's variables
// marked and is extended in place.
func keepAnchored(body []Literal, idx []int, ids func(int) []int32, anchored, keep []bool) []bool {
	keep = resetBools(keep, len(body))
	for _, i := range idx {
		if body[i].IsRelation() {
			keep[i] = true
			markVars(anchored, ids(i))
		}
	}
	// A repair literal survives when its target or replacement is an
	// anchored variable. Repair literals targeting constants (ground
	// bottom clauses) are kept as long as a relation literal still carries
	// that constant; approximating that check, they are always kept. The
	// survivors' variables then anchor restriction literals too.
	for _, i := range idx {
		if l := &body[i]; l.IsRepair() {
			for _, id := range ids(i)[:len(l.Args)] {
				if id < 0 || anchored[id] {
					keep[i] = true
					break
				}
			}
		}
	}
	for _, i := range idx {
		if keep[i] && body[i].IsRepair() {
			markVars(anchored, ids(i))
		}
	}
	for _, i := range idx {
		if l := &body[i]; l.IsRelation() || l.IsRepair() {
			continue
		}
		// Fully ground restriction literals (possible in ground bottom
		// clauses) are kept; they carry constant-level constraints.
		ground := true
		for _, id := range ids(i) {
			if id >= 0 {
				ground = false
				if anchored[id] {
					keep[i] = true
					break
				}
			}
		}
		if ground {
			keep[i] = true
		}
	}
	return keep
}

func markVars(set []bool, ids []int32) {
	for _, id := range ids {
		if id >= 0 {
			set[id] = true
		}
	}
}

// resetBools returns a cleared slice of n booleans, reusing b's storage.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// RepairConnectivity returns, for each relation literal of the clause, the
// ascending body indices of the repair literals connected to it in the
// sense of Definition 4.4: a repair literal V_c(x, vx) is connected to a
// non-repair literal L iff x or vx appears in L, or it appears in the
// arguments of a repair literal connected to L. Connectivity is tracked
// over terms (variables and constants), so it also applies to ground bottom
// clauses. It is one union-find pass over the repair literals' arguments:
// the repair literals connected to L are those whose class contains one of
// L's arguments. Entries of other literals, and of relation literals with no
// connected repair literal, are nil; entries may share storage and must not
// be modified.
func (c Clause) RepairConnectivity() [][]int {
	out := make([][]int, len(c.Body))
	ids := make(map[Term]int32)
	var parent []int32
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range c.Body {
		if !l.IsRepair() {
			continue
		}
		root := int32(-1)
		for _, a := range l.Args {
			id, ok := ids[a]
			if !ok {
				id = int32(len(parent))
				ids[a] = id
				parent = append(parent, id)
			}
			if r := find(id); root < 0 {
				root = r
			} else if r != root {
				parent[r] = root
			}
		}
	}
	if len(parent) == 0 {
		return out
	}
	members := make(map[int32][]int)
	for i, l := range c.Body {
		if l.IsRepair() && len(l.Args) > 0 {
			r := find(ids[l.Args[0]])
			members[r] = append(members[r], i)
		}
	}
	var roots []int32
	for i, l := range c.Body {
		if !l.IsRelation() {
			continue
		}
		roots = roots[:0]
		for _, a := range l.Args {
			if id, ok := ids[a]; ok && !slices.Contains(roots, find(id)) {
				roots = append(roots, find(id))
			}
		}
		switch len(roots) {
		case 0:
		case 1:
			out[i] = members[roots[0]]
		default:
			var merged []int
			for _, r := range roots {
				merged = append(merged, members[r]...)
			}
			slices.Sort(merged)
			out[i] = merged
		}
	}
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
