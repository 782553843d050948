// Package generalize implements DLearn's generalization step (Section 4.2):
// the asymmetric relative minimal generalization of ProGolem adapted to
// clauses with repair literals. A clause is generalized to cover an
// additional positive example by removing its blocking literals with respect
// to that example's ground bottom clause; head-connectivity is restored and
// repair literals whose only connection to the head ran through a removed
// literal are dropped together with it.
package generalize

import (
	"dlearn/internal/logic"
)

// CoverFunc decides whether a clause covers the example represented by a
// ground bottom clause. The learner supplies the Section 4.3 positive
// coverage test.
type CoverFunc func(c, ground logic.Clause) bool

// Generalizer produces minimal generalizations of clauses.
type Generalizer struct {
	covers CoverFunc
}

// New returns a generalizer that uses the given coverage test.
func New(covers CoverFunc) *Generalizer { return &Generalizer{covers: covers} }

// Generalize returns a clause that θ-subsumes c and covers the example whose
// ground bottom clause is ge, by removing the blocking literals of c with
// respect to ge: scanning the body in order, a literal is kept only if the
// clause prefix including it still covers the example; blocking literals are
// dropped (Section 4.2). Because dropping a literal never invalidates the
// coverage of the prefix before it, a single left-to-right pass removes
// exactly the blocking literals. If even the bare head cannot cover the
// example the input clause is returned unchanged along with false.
func (g *Generalizer) Generalize(c, ge logic.Clause) (logic.Clause, bool) {
	if c.Head.Pred != ge.Head.Pred || len(c.Head.Args) != len(ge.Head.Args) {
		return c, false
	}
	// The empty-bodied clause must cover the example; otherwise dropping
	// body literals can never help.
	if !g.covers(logic.Clause{Head: c.Head.Clone()}, ge) {
		return c, false
	}
	if g.covers(c, ge) {
		return c.Clone(), true
	}
	// Only head-connected prefixes are meaningful hypotheses, so each test
	// sees the accepted prefix pruned; the PrefixPruner maintains it as
	// literals are pushed and rolls a rejected one back.
	scan := logic.NewPrefixPruner(c.Head)
	kept := logic.Clause{Head: c.Head}
	for _, l := range c.Body {
		scan.Push(l)
		if g.covers(scan.Pruned(), ge) {
			kept.Body = append(kept.Body, l)
		} else {
			scan.Pop()
		}
	}
	// Removing literals can disconnect others from the head (including
	// repair literals whose only connection ran through a removed literal);
	// prune them so the clause stays head-connected (Section 4.2).
	out := kept.PruneUnconnected()
	return out, g.covers(out, ge)
}
