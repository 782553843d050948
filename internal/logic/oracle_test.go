package logic

import "sort"

// This file keeps the connectivity bookkeeping as it was before the
// union-find versions in clause.go — a breadth-first search over a
// variable → literal graph rebuilt for every clause, a per-literal fixpoint
// for Definition 4.4 connectivity, and variable sets as maps — as a
// test-only oracle for FuzzClauseConnectivity, with the literal accessors
// it and the tests read. No production path calls it.

// Variables returns the set of variable names appearing in the literal
// arguments (conditions included for repair literals).
func (l Literal) Variables() map[string]bool {
	vars := make(map[string]bool)
	for _, t := range l.AllTerms() {
		if t.Var {
			vars[t.Name] = true
		}
	}
	return vars
}

// Target returns the term a repair literal replaces (its first argument).
func (l Literal) Target() Term { return l.Args[0] }

// Replacement returns the replacement term of a repair literal (its second
// argument).
func (l Literal) Replacement() Term { return l.Args[1] }

// Terms returns the argument terms of the literal (not including condition
// terms of repair literals).
func (l Literal) Terms() []Term { return l.Args }

// connectionGraph captures which body literals share variables.
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

// ReferencePruneUnconnected is PruneUnconnected computed through
// HeadConnected and ReferenceDropDanglingAuxiliaries.
func (c Clause) ReferencePruneUnconnected() Clause {
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
	return pruned.ReferenceDropDanglingAuxiliaries()
}

// ReferenceDropDanglingAuxiliaries is DropDanglingAuxiliaries over
// variable-name maps.
func (c Clause) ReferenceDropDanglingAuxiliaries() Clause {
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
// 4.4, by a fixpoint over the repair literals: a repair literal joins once
// one of its arguments is in the growing term set, and adds its arguments
// to it.
func (c Clause) ConnectedRepairLiterals(li int) []int {
	target := c.Body[li]
	if target.IsRepair() {
		return nil
	}
	terms := make(map[Term]bool)
	for _, t := range target.Terms() {
		terms[t] = true
	}
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
