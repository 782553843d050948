package repair

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"dlearn/internal/logic"
)

// fuzzRepairInput decodes bytes into a clause with repair literals and the
// options to expand it with. Variables are lower case and constants upper
// case, so no variable renders like a constant. The clause mixes relation
// literals with MD pairs (a similarity literal, the pair of repair literals
// of one group and the restriction equality of their replacements),
// alternative CFD fixes (single-literal groups of one dependency with
// equality and inequality conditions), induced and plain equalities,
// inequalities and loose similarity literals.
func fuzzRepairInput(data []byte) (logic.Clause, Options) {
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
		if b%5 == 4 {
			return logic.Const(string(rune('A' + b/5%3)))
		}
		return logic.Var(fmt.Sprintf("x%d", b/5%5))
	}
	fresh := 0
	freshVar := func() logic.Term {
		fresh++
		return logic.Var(fmt.Sprintf("v%d", fresh))
	}
	c := logic.Clause{Head: logic.Rel("t", term())}
	n := next()%10 + 1
	for i := 0; i < n; i++ {
		switch next() % 8 {
		case 0, 1:
			args := []logic.Term{term(), term()}
			if next()%2 == 0 {
				args = append(args, term())
			}
			c.Body = append(c.Body, logic.Rel(fmt.Sprintf("r%d", next()%3), args...))
		case 2, 3:
			a, b := term(), term()
			va, vb := freshVar(), freshVar()
			cond := logic.Condition{Op: logic.CondSim, L: a, R: b}
			name := fmt.Sprintf("md%d", next()%2)
			group := fmt.Sprintf("%s#%d", name, i)
			c.Body = append(c.Body,
				logic.Sim(a, b),
				logic.RepairInGroup(name, group, logic.OriginMD, a, va, cond),
				logic.RepairInGroup(name, group, logic.OriginMD, b, vb, cond),
				logic.Eq(va, vb))
		case 4:
			name := fmt.Sprintf("cfd%d", next()%2)
			for k := next()%3 + 1; k > 0; k-- {
				op := logic.CondEq
				if next()%2 == 0 {
					op = logic.CondNeq
				}
				target := term()
				replacement := term()
				if next()%2 == 0 {
					replacement = freshVar()
				}
				c.Body = append(c.Body, logic.RepairInGroup(name, fmt.Sprintf("%s#%d.%d", name, i, k), logic.OriginCFD,
					target, replacement, logic.Condition{Op: op, L: term(), R: term()}))
			}
		case 5:
			if next()%2 == 0 {
				c.Body = append(c.Body, logic.InducedEq(term(), term()))
			} else {
				c.Body = append(c.Body, logic.Eq(term(), term()))
			}
		case 6:
			c.Body = append(c.Body, logic.Sim(term(), term()))
		default:
			c.Body = append(c.Body, logic.Neq(term(), term()))
		}
	}
	var opts Options
	switch next() % 3 {
	case 1:
		opts.Origin = logic.OriginMD
	case 2:
		opts.Origin = logic.OriginCFD
	}
	if b := next(); b%2 == 0 {
		opts.MaxStates = b%40 + 1
	}
	if b := next(); b%2 == 0 {
		opts.MaxClauses = b%6 + 1
	}
	return c, opts
}

// checkExpansion runs the interned expansion and the string-keyed oracle on
// one input and fails on any difference in the rendered clause lists or the
// truncation flag.
func checkExpansion(t *testing.T, c logic.Clause, opts Options) {
	t.Helper()
	ctx := context.Background()
	got, gotCut := RepairedClausesContext(ctx, c, opts)
	want, wantCut := referenceRepairedClauses(ctx, c, opts)
	gotS, wantS := clauseStrings(got), clauseStrings(want)
	if !slices.Equal(gotS, wantS) || gotCut != wantCut {
		t.Fatalf("expansion of %v with %+v:\n got (cut=%v) %q\nwant (cut=%v) %q", c, opts, gotCut, gotS, wantCut, wantS)
	}
}

func clauseStrings(cs []logic.Clause) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// FuzzRepairedClauses checks the interned expansion against the
// string-keyed expansion it replaced (reference_test.go): the same
// repaired clauses, rendered, in the same order, and the same truncation
// flag, also under small MaxStates and MaxClauses caps.
func FuzzRepairedClauses(f *testing.F) {
	f.Add([]byte{3, 0, 5, 10, 0, 2, 6, 11, 1, 2, 0, 20, 0, 0, 1})
	f.Add([]byte{6, 4, 0, 1, 1, 2, 10, 15, 0, 4, 1, 0, 1, 4, 0, 2, 4, 5, 3, 5, 0, 9, 14, 2, 2, 0, 5, 7, 0, 6, 5, 8, 0, 3, 2, 2})
	f.Add([]byte{9, 2, 0, 5, 10, 2, 21, 1, 2, 5, 16, 0, 3, 4, 1, 1, 5, 20, 1, 0, 3, 7, 2, 3, 30, 0, 2, 1, 4, 5, 1, 1, 1, 6, 12, 0, 3, 0, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, opts := fuzzRepairInput(data)
		checkExpansion(t, c, opts)
	})
}

// TestRepairedClausesMatchReference runs the FuzzRepairedClauses check
// over a fixed set of pseudo-random inputs, so plain go test covers it.
func TestRepairedClausesMatchReference(t *testing.T) {
	state := uint64(7)
	for i := 0; i < 1500; i++ {
		data := make([]byte, 64)
		for j := range data {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			data[j] = byte(state)
		}
		c, opts := fuzzRepairInput(data)
		checkExpansion(t, c, opts)
	}
	for _, c := range []logic.Clause{paperMDClause(), example33Clause(), cfdViolationClause()} {
		for _, opts := range []Options{{}, {MaxClauses: 1}, {MaxStates: 2}, {Origin: logic.OriginCFD}, {Origin: logic.OriginMD}} {
			checkExpansion(t, c, opts)
		}
	}
}

// TestRepairedClausesSeparateVarFromConst pins what the rendered keys got
// wrong: the variable g and the constant "g" render alike, so the
// string-keyed expansion merged r(x, g) and r(x, "g") into one literal.
// They are different literals, and the repaired clause keeps both.
func TestRepairedClausesSeparateVarFromConst(t *testing.T) {
	x := logic.Var("x")
	c := logic.NewClause(logic.Rel("t", x),
		logic.Rel("r", x, logic.Var("g")),
		logic.Rel("r", x, logic.Const("g")))
	got, cut := RepairedClausesContext(context.Background(), c, Options{})
	if len(got) != 1 || cut || len(got[0].Body) != 2 {
		t.Fatalf("repaired clauses %v (cut=%v), want one clause with both literals", got, cut)
	}
	if old, _ := referenceRepairedClauses(context.Background(), c, Options{}); len(old) != 1 || len(old[0].Body) != 1 {
		t.Fatalf("the string-keyed oracle no longer merges the two literals: %v", old)
	}
}
