package logic_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"dlearn/internal/generalize"
	"dlearn/internal/logic"
)

// fuzzClause decodes bytes into a small clause over a handful of
// variables (lower case) and constants (upper case): relation, equality
// (induced or plain), inequality, similarity and repair literals, the
// repair literals with conditions. Small pools make shared variables,
// chains of repair literals and unconnected literals all common.
func fuzzClause(data []byte) logic.Clause {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	term := func() logic.Term {
		b := next()
		if b%4 == 3 {
			return logic.Const(string(rune('A' + b/4%3)))
		}
		return logic.Var(fmt.Sprintf("v%d", b/4%6))
	}
	head := logic.Rel("t", term())
	if next()%3 == 0 {
		head.Args = append(head.Args, term())
	}
	c := logic.Clause{Head: head}
	n := next() % 12
	for i := 0; i < n; i++ {
		switch next() % 7 {
		case 0, 1:
			args := []logic.Term{term()}
			for k := next() % 3; k > 0; k-- {
				args = append(args, term())
			}
			c.Body = append(c.Body, logic.Rel(fmt.Sprintf("r%d", next()%3), args...))
		case 2:
			if next()%2 == 0 {
				c.Body = append(c.Body, logic.InducedEq(term(), term()))
			} else {
				c.Body = append(c.Body, logic.Eq(term(), term()))
			}
		case 3:
			c.Body = append(c.Body, logic.Neq(term(), term()))
		case 4:
			c.Body = append(c.Body, logic.Sim(term(), term()))
		default:
			origin := logic.OriginMD
			if next()%2 == 0 {
				origin = logic.OriginCFD
			}
			var cond []logic.Condition
			if next()%2 == 0 {
				cond = append(cond, logic.Condition{Op: logic.CondSim, L: term(), R: term()})
			}
			name := fmt.Sprintf("d%d", next()%3)
			c.Body = append(c.Body, logic.RepairInGroup(name, name+"#g", origin, term(), term(), cond...))
		}
	}
	return c
}

// sameClause reports whether two clauses are equal literal by literal,
// every field included.
func sameClause(a, b logic.Clause) bool {
	return a.Equal(b) && a.Key() == b.Key()
}

// referenceGeneralize is the generalization scan as it was before
// PrefixPruner: it rebuilds the pruned prefix from scratch for every
// tested literal.
func referenceGeneralize(covers generalize.CoverFunc, c, ge logic.Clause) (logic.Clause, bool) {
	if c.Head.Pred != ge.Head.Pred || len(c.Head.Args) != len(ge.Head.Args) {
		return c, false
	}
	if !covers(logic.Clause{Head: c.Head.Clone()}, ge) {
		return c, false
	}
	if covers(c, ge) {
		return c.Clone(), true
	}
	kept := logic.Clause{Head: c.Head.Clone()}
	for i := range c.Body {
		kept.Body = append(kept.Body, c.Body[i].Clone())
		if !covers(kept.ReferencePruneUnconnected(), ge) {
			kept.Body = kept.Body[:len(kept.Body)-1]
		}
	}
	out := kept.ReferencePruneUnconnected()
	return out, covers(out, ge)
}

// checkConnectivity is FuzzClauseConnectivity's battery on one clause;
// choices drives which pushed literals the incremental scan rejects and
// which clauses the synthetic coverage test accepts.
func checkConnectivity(t *testing.T, c logic.Clause, choices uint64) {
	t.Helper()
	// One-pass Definition 4.4 connectivity vs the per-literal fixpoint.
	conn := c.RepairConnectivity()
	for i, l := range c.Body {
		if !l.IsRelation() {
			if conn[i] != nil {
				t.Fatalf("non-relation literal %d has connectivity %v\n%v", i, conn[i], c)
			}
			continue
		}
		if want := c.ConnectedRepairLiterals(i); !slices.Equal(conn[i], want) {
			t.Fatalf("literal %d: RepairConnectivity %v, fixpoint %v\n%v", i, conn[i], want, c)
		}
	}
	if got, want := c.DropDanglingAuxiliaries(), c.ReferenceDropDanglingAuxiliaries(); !sameClause(got, want) {
		t.Fatalf("DropDanglingAuxiliaries:\n got %v\nwant %v\nof %v", got, want, c)
	}
	if got, want := c.PruneUnconnected(), c.ReferencePruneUnconnected(); !sameClause(got, want) {
		t.Fatalf("PruneUnconnected:\n got %v\nwant %v\nof %v", got, want, c)
	}
	// The incremental scan's pruned prefixes, with rollbacks, vs pruning
	// each prefix from scratch.
	p := logic.NewPrefixPruner(c.Head)
	kept := logic.Clause{Head: c.Head}
	for i, l := range c.Body {
		p.Push(l)
		kept.Body = append(kept.Body, l)
		if got, want := p.Pruned(), kept.ReferencePruneUnconnected(); !sameClause(got, want) {
			t.Fatalf("prefix %d:\n got %v\nwant %v\nof %v", i, got, want, kept)
		}
		if choices>>(i%64)&1 == 1 {
			p.Pop()
			kept.Body = kept.Body[:len(kept.Body)-1]
		}
	}
	if got, want := p.Pruned(), kept.ReferencePruneUnconnected(); !sameClause(got, want) {
		t.Fatalf("final prefix:\n got %v\nwant %v\nof %v", got, want, kept)
	}
	// Generalize vs the old scan, under a coverage test that accepts a
	// pseudo-random half of the clauses it is shown.
	covers := func(cand, _ logic.Clause) bool {
		if len(cand.Body) == 0 {
			return true
		}
		h := fnv.New64a()
		h.Write([]byte(cand.Key()))
		return (h.Sum64()^choices)&1 == 0
	}
	ge := logic.Clause{Head: c.Head}
	gotC, gotOK := generalize.New(covers).Generalize(c, ge)
	wantC, wantOK := referenceGeneralize(covers, c, ge)
	if gotOK != wantOK || !sameClause(gotC, wantC) {
		t.Fatalf("Generalize:\n got %v %v\nwant %v %v\nof %v", gotC, gotOK, wantC, wantOK, c)
	}
}

// FuzzClauseConnectivity checks the union-find connectivity of clause.go
// against the test-only oracle in oracle_test.go: RepairConnectivity
// against the per-literal fixpoint, PrefixPruner's pruned prefixes (with
// rollbacks) and PruneUnconnected against pruning each prefix from
// scratch, and Generalize's scan against the scan that rebuilt every
// prefix.
func FuzzClauseConnectivity(f *testing.F) {
	f.Add([]byte{0, 1, 8, 0, 4, 8, 12, 6, 0, 8, 5, 0, 1, 3, 9, 4, 2}, uint64(0))
	f.Add([]byte{4, 0, 11, 5, 1, 0, 20, 2, 6, 0, 4, 8, 3, 6, 1, 8, 12, 0, 2, 5, 0, 12, 16, 0}, uint64(0x5a))
	f.Add([]byte{7, 3, 10, 6, 1, 7, 11, 2, 1, 15, 19, 0, 2, 4, 4, 3, 5, 1, 3, 0, 0, 5, 0, 7, 19, 1}, uint64(0xff))
	f.Fuzz(func(t *testing.T, data []byte, choices uint64) {
		checkConnectivity(t, fuzzClause(data), choices)
	})
}

// TestClauseConnectivityRandom runs the FuzzClauseConnectivity battery
// over a fixed set of pseudo-random clauses, so plain go test covers it.
func TestClauseConnectivityRandom(t *testing.T) {
	state := uint64(1)
	rnd := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 2000; i++ {
		data := make([]byte, 48)
		for j := range data {
			data[j] = byte(rnd())
		}
		checkConnectivity(t, fuzzClause(data), rnd())
	}
}
