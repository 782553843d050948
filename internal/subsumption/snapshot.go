package subsumption

import (
	"sort"

	"dlearn/internal/logic"
)

// PreparedSnapshot is the persistable form of a Prepared: the clause it was
// built from plus the derived state that is expensive to recompute — the
// frozen equality closure and the repair-literal connectivity. The
// predicate index and the repair flag are cheap linear scans and are rebuilt
// on restore instead of being stored.
//
// Snapshots exist so internal/persist can serialize prepared examples
// without reaching into this package's unexported state; they are plain data
// with deterministic field ordering, making their binary encoding stable
// across runs of the same preparation.
type PreparedSnapshot struct {
	// Clause is the subsumed-side clause the preparation was built from.
	Clause logic.Clause
	// MaxNodes is the search budget the preparation was built with.
	MaxNodes int
	// EqRoots is the frozen equality closure as (term, representative)
	// pairs, sorted by term.
	EqRoots [][2]logic.Term
	// SimPairs are the similarity pairs of the clause (both directions),
	// sorted.
	SimPairs [][2]logic.Term
	// Connected is the repair-literal connectivity: for each relation
	// literal (by body index, ascending) the sorted indices of its connected
	// repair literals. Entries with no connected repair literals are
	// omitted.
	Connected []ConnectedEntry
}

// ConnectedEntry records the repair literals connected to one body literal.
type ConnectedEntry struct {
	// Literal is the body index of a relation literal.
	Literal int
	// Repairs are the body indices of its connected repair literals.
	Repairs []int
}

// termLess orders terms deterministically: variables before constants, then
// by name.
func termLess(a, b logic.Term) bool {
	if a.Var != b.Var {
		return a.Var
	}
	return a.Name < b.Name
}

func termPairLess(a, b [2]logic.Term) bool {
	if a[0] != b[0] {
		return termLess(a[0], b[0])
	}
	return termLess(a[1], b[1])
}

// Snapshot extracts the persistable state of the preparation. The result
// shares no mutable state with the receiver and is deterministic: two
// snapshots of equal preparations are deeply equal.
func (p *Prepared) Snapshot() PreparedSnapshot {
	s := PreparedSnapshot{Clause: p.d, MaxNodes: p.maxNodes}
	for t, r := range p.eq.root {
		s.EqRoots = append(s.EqRoots, [2]logic.Term{t, r})
	}
	sortPairs(s.EqRoots)
	for pr := range p.simPairs {
		s.SimPairs = append(s.SimPairs, pr)
	}
	sortPairs(s.SimPairs)
	for li, reps := range p.connected {
		if len(reps) == 0 {
			continue
		}
		rs := make([]int, len(reps))
		copy(rs, reps)
		s.Connected = append(s.Connected, ConnectedEntry{Literal: li, Repairs: rs})
	}
	return s
}

// RestorePrepared rebuilds a Prepared from its snapshot without re-running
// the parts of Prepare the snapshot stores (equality-closure freezing and
// repair connectivity). The predicate index and repair flag are recomputed from the
// clause in one linear pass. The restored value is immutable and behaves
// identically to the Prepared the snapshot was taken from.
func RestorePrepared(s PreparedSnapshot) *Prepared {
	maxNodes := s.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	p := &Prepared{
		d:         s.Clause,
		byPred:    make(map[uint32][]int),
		eq:        eqClosure{root: make(map[logic.Term]logic.Term, len(s.EqRoots))},
		simPairs:  make(map[[2]logic.Term]bool, len(s.SimPairs)),
		connected: make([][]int, len(s.Clause.Body)),
		maxNodes:  maxNodes,
	}
	for i, l := range s.Clause.Body {
		if l.IsRelation() || l.IsRepair() {
			k := predID(l)
			p.byPred[k] = append(p.byPred[k], i)
		}
		if l.IsRepair() {
			p.hasRepair = true
		}
	}
	for _, pr := range s.EqRoots {
		p.eq.root[pr[0]] = pr[1]
	}
	for _, pr := range s.SimPairs {
		p.simPairs[pr] = true
	}
	for _, e := range s.Connected {
		if e.Literal >= 0 && e.Literal < len(p.connected) {
			p.connected[e.Literal] = e.Repairs
		}
	}
	return p
}

func sortPairs(ps [][2]logic.Term) {
	sort.Slice(ps, func(i, j int) bool { return termPairLess(ps[i], ps[j]) })
}
