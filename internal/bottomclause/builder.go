// Package bottomclause implements DLearn's bottom-clause construction
// (Algorithm 2 of the paper): starting from a training example, it collects
// the tuples connected to it through exact matches (over comparable
// attributes) and through similarity matches (guided by matching
// dependencies), and turns them into the most specific clause in the
// hypothesis space that covers the example. Similarity matches contribute
// similarity literals and MD repair literals; CFD violations among the
// collected tuples contribute CFD repair literals (Section 4.1).
package bottomclause

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"dlearn/internal/constraints"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
	"dlearn/internal/similarity"
)

// MDMode selects how matching dependencies are used while collecting
// relevant tuples.
type MDMode int

const (
	// MDIgnore ignores MDs entirely (the Castor-NoMD baseline).
	MDIgnore MDMode = iota
	// MDExact uses MDs only to join their compared attributes with exact
	// matches (the Castor-Exact baseline).
	MDExact
	// MDSimilarity performs top-k_m similarity search along MDs and adds
	// similarity and repair literals (DLearn).
	MDSimilarity
)

// Config controls bottom-clause construction.
type Config struct {
	// Iterations is d, the number of expansion rounds of Algorithm 2.
	Iterations int
	// SampleSize caps the number of tuples (hence relation literals) added
	// to a bottom clause per relation. Zero means no cap.
	SampleSize int
	// KM is the number of top similar matches considered per probe value.
	KM int
	// SimilarityThreshold is the minimum combined similarity for ≈ to hold.
	SimilarityThreshold float64
	// MDMode selects how MDs are used.
	MDMode MDMode
	// UseCFDs adds repair literals for CFD violations among the collected
	// tuples.
	UseCFDs bool
	// Seed drives the deterministic sampling of tuples when SampleSize is
	// exceeded.
	Seed int64
}

// DefaultConfig mirrors the paper's experimental defaults (d per dataset,
// sample size 10, k_m provided per experiment).
func DefaultConfig() Config {
	return Config{
		Iterations:          3,
		SampleSize:          10,
		KM:                  5,
		SimilarityThreshold: 0.55,
		MDMode:              MDSimilarity,
		UseCFDs:             true,
	}
}

// Builder constructs (ground) bottom clauses for examples of a target
// relation over a fixed database instance. The instance must not change
// after the builder's first use: the builder's plan (row identities, value
// ranks, similarity indexes and top-k_m answers) is built lazily from it and
// kept for the builder's lifetime. A Builder is safe for concurrent use.
type Builder struct {
	inst   *relation.Instance
	target *relation.Relation
	mds    []constraints.MD
	cfds   []constraints.CFD
	cfg    Config

	// planOnce builds plan on first use.
	planOnce sync.Once
	plan     *plan
}

// plan is the part of Algorithm 2 that depends on the instance, the target
// and the MDs but not on the example, on interned value IDs. It is O(distinct
// values + rows) and belongs to one builder.
type plan struct {
	// domains is the number of dense domain indexes: one per distinct
	// domain name of a target attribute, a relation attribute or an MD's
	// left side.
	domains int
	// targetDoms is the domain index of each target attribute.
	targetDoms []int
	// rels lists the schema's relations in schema order.
	rels []relPlan
	// rows is the number of rows over all relations, maxRows the largest
	// relation's.
	rows, maxRows int
	// rank is the position of every interned value of the instance in
	// string order, so constants sort as their strings do.
	rank []uint32
}

// relPlan is one relation's part of the plan.
type relPlan struct {
	name string
	// doms is the domain index of each attribute.
	doms []int
	// steps are the MD-guided searches ψ_{B≈M}(R) into the relation, in the
	// order of activeMDs and of each MD's compared pairs.
	steps []mdStep
	// first maps each row position to the first position holding an
	// identical row, so two positions are one tuple exactly when their
	// values are equal.
	first []int32
	// offset numbers the relation's rows after those of the relations
	// before it, for the per-example set of taken rows.
	offset int
}

// mdStep is one compared pair of an MD whose right side is the step's
// relation: constants of the left side's domain probe the right attribute.
type mdStep struct {
	md constraints.MD
	// name indexes md.Name among the MD names: an MD and its reverse share
	// it, as they share the name their similarity matches are keyed by.
	name int
	// attr is the probed (right) attribute and leftDom the domain index of
	// the compared left attribute.
	attr, leftDom int
	// probe holds the similarity index and top-k_m memo of (relation, attr),
	// shared by every step probing that attribute.
	probe *probed
}

// probed is the similarity index of one probed relation attribute, built on
// first probe, and its memo of top-k_m answers per interned probe value: at
// most one entry of at most k_m matches per distinct value of the instance.
// mu guards both, so concurrent grounding (Model.Predict from several
// goroutines) is safe; the index and the memoized answers are immutable once
// stored.
type probed struct {
	rel  string
	attr int
	mu   sync.Mutex
	idx  *similarity.Index
	topK map[uint32][]match
}

// match is a top-k_m answer with the interned ID of its value.
type match struct {
	similarity.Match
	id uint32
}

// NewBuilder creates a builder. target describes the target relation (its
// attribute domains determine which database attributes the example's
// constants may join with); it does not need to be part of the instance
// schema. MDs may reference the target relation as well as database
// relations.
func NewBuilder(inst *relation.Instance, target *relation.Relation, mds []constraints.MD, cfds []constraints.CFD, cfg Config) *Builder {
	if cfg.Iterations <= 0 {
		cfg.Iterations = DefaultConfig().Iterations
	}
	if cfg.KM <= 0 {
		cfg.KM = DefaultConfig().KM
	}
	if cfg.SimilarityThreshold <= 0 {
		cfg.SimilarityThreshold = DefaultConfig().SimilarityThreshold
	}
	return &Builder{inst: inst, target: target, mds: mds, cfds: cfds, cfg: cfg}
}

// simMatch records one approximate match found through an MD: probe value c
// (from the MD's left side) matched value v in the right relation. probe and
// value are their IDs in collect's M, which orders the matches.
type simMatch struct {
	MD           constraints.MD
	Probe        string
	Value        string
	Score        float64
	probe, value uint32
}

// collection is the result of the relevant-tuple search for one example.
type collection struct {
	tuples     []relation.Tuple
	simMatches []simMatch
}

// BottomClause builds the variabilized bottom clause for the example: the
// most specific clause in the hypothesis space covering it (Section 4.1).
func (b *Builder) BottomClause(example relation.Tuple) (logic.Clause, error) {
	col, err := b.collect(example)
	if err != nil {
		return logic.Clause{}, err
	}
	return b.buildClause(example, col, false), nil
}

// GroundBottomClause builds the ground bottom clause used by coverage
// testing (Section 4.3): same structure, but database constants are kept.
func (b *Builder) GroundBottomClause(example relation.Tuple) (logic.Clause, error) {
	col, err := b.collect(example)
	if err != nil {
		return logic.Clause{}, err
	}
	return b.buildClause(example, col, true), nil
}

// matchKey identifies a similarity match: the MD name's index, the probe's
// ID and the matched value's ID.
type matchKey struct {
	name         int
	probe, value uint32
}

// rowRef is a row position of the plan's relation rel.
type rowRef struct {
	rel, pos int
}

// collect implements the relevant-tuple search of Algorithm 2 on interned
// value IDs. Rounds are naive: each one walks all of M, not only the
// constants the previous round added, because under SampleSize the rows
// taken earlier still hold slots in the shuffle that samples a relation's
// candidates.
func (b *Builder) collect(example relation.Tuple) (collection, error) {
	if len(example.Values) != b.target.Arity() {
		return collection{}, fmt.Errorf("bottomclause: example arity %d does not match target %s", len(example.Values), b.target)
	}
	p := b.loadPlan()
	m := newConstants(p, b.inst.Interner())
	for i, v := range example.Values {
		m.add(m.id(v), p.targetDoms[i])
	}
	m.merge()

	var (
		col         collection
		seenMatches = make(map[matchKey]bool)
		// The rng is seeded on the first shuffle, its only use.
		rng        *rand.Rand
		candidates []int
		added      []rowRef
		ids        []uint32
		perRel     = make([]int, len(p.rels))
		// taken holds the rows (by identity) added to the clause, dup the
		// identities already among a relation's candidates this round.
		taken = newBitset(p.rows)
		dup   = newBitset(p.maxRows)
	)
	for iter := 0; iter < b.cfg.Iterations; iter++ {
		added = added[:0]
		for r := range p.rels {
			rp := &p.rels[r]
			// A relation whose sample is full takes no more tuples, so its
			// rows are not selected. Its similarity matches are still
			// searched: each one becomes a similarity literal.
			full := b.cfg.SampleSize > 0 && perRel[r] >= b.cfg.SampleSize
			candidates = candidates[:0]

			// Exact selection over comparable attributes: σ_{A∈M}(R).
			for a := 0; a < len(rp.doms) && !full; a++ {
				for _, c := range m.byDomain[rp.doms[a]] {
					candidates = append(candidates, b.inst.SelectPositions(rp.name, a, c)...)
				}
			}

			// MD-guided search: ψ_{B≈M}(R) (similarity) or exact joins over
			// the MD's compared attributes, depending on the mode.
			for _, st := range rp.steps {
				for _, c := range m.byDomain[st.leftDom] {
					switch b.cfg.MDMode {
					case MDExact:
						if !full {
							candidates = append(candidates, b.inst.SelectPositions(rp.name, st.attr, c)...)
						}
					case MDSimilarity:
						for _, mt := range b.similar(st.probe, m, c) {
							if !full {
								candidates = append(candidates, b.inst.SelectPositions(rp.name, st.attr, mt.id)...)
							}
							if mt.id == c {
								continue
							}
							key := matchKey{st.name, c, mt.id}
							if !seenMatches[key] {
								seenMatches[key] = true
								col.simMatches = append(col.simMatches, simMatch{
									MD: st.md, Probe: m.value(c), Value: mt.Value, Score: mt.Score, probe: c, value: mt.id,
								})
							}
						}
					}
				}
			}

			if full {
				continue
			}
			// Drop rows with values equal to an earlier candidate's,
			// keeping first-occurrence order: the shuffle depends on it.
			kept := candidates[:0]
			for _, pos := range candidates {
				if dup.testAndSet(int(rp.first[pos])) {
					kept = append(kept, pos)
				}
			}
			for _, pos := range kept {
				dup.clear(int(rp.first[pos]))
			}
			// Respect the per-relation sample size by sampling the
			// candidates deterministically.
			if b.cfg.SampleSize > 0 {
				if budget := b.cfg.SampleSize - perRel[r]; len(kept) > budget {
					if rng == nil {
						rng = rand.New(rand.NewSource(b.cfg.Seed ^ int64(hashString(seedKey(example)))))
					}
					rng.Shuffle(len(kept), func(i, j int) {
						kept[i], kept[j] = kept[j], kept[i]
					})
					kept = kept[:budget]
				}
			}
			for _, pos := range kept {
				if b.cfg.SampleSize > 0 && perRel[r] >= b.cfg.SampleSize {
					break
				}
				if !taken.testAndSet(rp.offset + int(rp.first[pos])) {
					continue
				}
				perRel[r]++
				col.tuples = append(col.tuples, b.inst.TupleAt(rp.name, pos))
				added = append(added, rowRef{r, pos})
			}
		}

		// Extract new constants from the rows added this round.
		grew := false
		for _, a := range added {
			rp := &p.rels[a.rel]
			ids = b.inst.RowIDs(ids[:0], rp.name, a.pos)
			for i, id := range ids {
				if m.add(id, rp.doms[i]) {
					grew = true
				}
			}
		}
		if !grew && len(added) == 0 {
			break
		}
		m.merge()
	}
	// Every match found is kept, whether or not a tuple holding its value
	// was sampled; order them deterministically, by MD name, then probe
	// and value in string order.
	slices.SortStableFunc(col.simMatches, func(x, y simMatch) int {
		if c := strings.Compare(x.MD.Name, y.MD.Name); c != 0 {
			return c
		}
		if c := m.compare(x.probe, y.probe); c != 0 {
			return c
		}
		return m.compare(x.value, y.value)
	})
	return col, nil
}

// loadPlan returns the builder's plan, building it on first use.
func (b *Builder) loadPlan() *plan {
	b.planOnce.Do(func() { b.plan = b.newPlan() })
	return b.plan
}

// newPlan resolves the schema, the target and the MDs to dense indexes and
// computes the row identities and value ranks of the instance.
func (b *Builder) newPlan() *plan {
	schema := b.inst.Schema()
	domains := make(map[string]int)
	domain := func(name string) int {
		i, ok := domains[name]
		if !ok {
			i = len(domains)
			domains[name] = i
		}
		return i
	}
	names := make(map[string]int)
	probes := make(map[relation.AttrRef]*probed)
	mds := b.activeMDs()

	p := &plan{}
	for _, a := range b.target.Attrs {
		p.targetDoms = append(p.targetDoms, domain(a.Domain))
	}
	var ids []uint32
	var key []byte
	for _, name := range schema.Names() {
		rel := schema.Relation(name)
		rp := relPlan{name: name, doms: make([]int, rel.Arity()), offset: p.rows}
		for a, attr := range rel.Attrs {
			rp.doms[a] = domain(attr.Domain)
		}
		for _, md := range mds {
			if md.RightRel != name {
				continue
			}
			rIdx := md.RightAttrIndexes(schema)
			for k, pair := range md.Similar {
				ra := rIdx[k]
				if ra < 0 {
					continue
				}
				ni, ok := names[md.Name]
				if !ok {
					ni = len(names)
					names[md.Name] = ni
				}
				ref := relation.AttrRef{Relation: name, Attr: ra}
				pr := probes[ref]
				if pr == nil {
					pr = &probed{rel: name, attr: ra, topK: make(map[uint32][]match)}
					probes[ref] = pr
				}
				rp.steps = append(rp.steps, mdStep{
					md: md, name: ni, attr: ra, leftDom: domain(b.attrDomain(md.LeftRel, pair.Left)), probe: pr,
				})
			}
		}

		n := b.inst.Count(name)
		rp.first = make([]int32, n)
		byValue := make(map[string]int32, n)
		for pos := range n {
			ids = b.inst.RowIDs(ids[:0], name, pos)
			key = appendIDKey(key[:0], ids)
			q, ok := byValue[string(key)]
			if !ok {
				q = int32(pos)
				byValue[string(key)] = q
			}
			rp.first[pos] = q
		}
		p.rows += n
		p.maxRows = max(p.maxRows, n)
		p.rels = append(p.rels, rp)
	}
	p.domains = len(domains)

	intern := b.inst.Interner()
	order := make([]uint32, intern.Len())
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(x, y uint32) int { return strings.Compare(intern.Value(x), intern.Value(y)) })
	p.rank = make([]uint32, len(order))
	for r, id := range order {
		p.rank[id] = uint32(r)
	}
	return p
}

// activeMDs returns the MDs in both orientations (similarity search may have
// to walk an MD from either side), excluding them entirely in MDIgnore mode.
func (b *Builder) activeMDs() []constraints.MD {
	if b.cfg.MDMode == MDIgnore {
		return nil
	}
	out := make([]constraints.MD, 0, 2*len(b.mds))
	for _, md := range b.mds {
		out = append(out, md, md.Reverse())
	}
	return out
}

// attrDomain returns the domain of an attribute of a database relation or of
// the target relation.
func (b *Builder) attrDomain(rel, attr string) string {
	if rel == b.target.Name {
		if i := b.target.AttrIndex(attr); i >= 0 {
			return b.target.Attrs[i].Domain
		}
		return ""
	}
	r := b.inst.Schema().Relation(rel)
	if r == nil {
		return ""
	}
	if i := r.AttrIndex(attr); i >= 0 {
		return r.Attrs[i].Domain
	}
	return ""
}

// similar returns the top-k_m values of the probed attribute similar to
// constant c of M, using the attribute's blocked index. Answers for probes
// interned in the instance are memoized; callers must not modify the
// returned slice.
func (b *Builder) similar(pr *probed, m *constants, c uint32) []match {
	interned := m.interned(c)
	pr.mu.Lock()
	if interned {
		if ms, ok := pr.topK[c]; ok {
			pr.mu.Unlock()
			return ms
		}
	}
	if pr.idx == nil {
		pr.idx = similarity.NewIndex(b.inst.DistinctValues(pr.rel, pr.attr), similarity.DefaultOptions(), b.cfg.SimilarityThreshold)
	}
	idx := pr.idx
	pr.mu.Unlock()
	// Aligning outside the lock lets two goroutines compute the same answer
	// at once; both store equal values.
	found := idx.TopK(m.value(c), b.cfg.KM)
	ms := make([]match, len(found))
	for i, f := range found {
		// The index holds the attribute's values, so every match is
		// interned.
		id, _ := b.inst.Interner().Lookup(f.Value)
		ms[i] = match{Match: f, id: id}
	}
	if interned {
		pr.mu.Lock()
		pr.topK[c] = ms
		pr.mu.Unlock()
	}
	return ms
}

// constants is M of Algorithm 2 for one example, on value IDs: the domains
// each constant was seen in, and per domain the constants seen in it in
// string order. Walking a domain's list gives a round's sorted frontier
// filtered by that domain. Example values the instance never interned get
// overlay IDs from len(rank) on; they compare as strings and select no rows.
type constants struct {
	rank    []uint32
	intern  *relation.Interner
	overlay []string
	// words is the size in uint64s of a constant's domain set, a bitset
	// over domain indexes; slot gives the offset of each constant's set in
	// doms.
	words int
	slot  map[uint32]int
	doms  []uint64
	// byDomain lists, per domain, the constants of M in string order as of
	// the last merge; fresh holds what was added since.
	byDomain [][]uint32
	fresh    []domConst
}

// domConst is a constant newly seen in a domain.
type domConst struct {
	dom int
	id  uint32
}

func newConstants(p *plan, intern *relation.Interner) *constants {
	return &constants{
		rank:     p.rank,
		intern:   intern,
		words:    (p.domains + 63) / 64,
		slot:     make(map[uint32]int),
		byDomain: make([][]uint32, p.domains),
	}
}

// id returns the ID of an example value: its interned ID, or an overlay ID.
func (m *constants) id(v string) uint32 {
	if id, ok := m.intern.Lookup(v); ok {
		return id
	}
	for i, o := range m.overlay {
		if o == v {
			return uint32(len(m.rank) + i)
		}
	}
	m.overlay = append(m.overlay, v)
	return uint32(len(m.rank) + len(m.overlay) - 1)
}

func (m *constants) interned(id uint32) bool { return int(id) < len(m.rank) }

func (m *constants) value(id uint32) string {
	if m.interned(id) {
		return m.intern.Value(id)
	}
	return m.overlay[int(id)-len(m.rank)]
}

// compare orders constants as their strings.
func (m *constants) compare(x, y uint32) int {
	if m.interned(x) && m.interned(y) {
		return cmp.Compare(m.rank[x], m.rank[y])
	}
	return strings.Compare(m.value(x), m.value(y))
}

// add records that constant id was seen in domain dom and reports whether
// that is new.
func (m *constants) add(id uint32, dom int) bool {
	s, ok := m.slot[id]
	if !ok {
		s = len(m.doms)
		m.slot[id] = s
		m.doms = append(m.doms, make([]uint64, m.words)...)
	}
	w, bit := &m.doms[s+dom/64], uint64(1)<<(dom%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	m.fresh = append(m.fresh, domConst{dom, id})
	return true
}

// merge moves the constants added since the last merge into their domains'
// lists, keeping each list in string order.
func (m *constants) merge() {
	slices.SortFunc(m.fresh, func(x, y domConst) int {
		if x.dom != y.dom {
			return x.dom - y.dom
		}
		return m.compare(x.id, y.id)
	})
	for i := 0; i < len(m.fresh); {
		dom, j := m.fresh[i].dom, i
		for j < len(m.fresh) && m.fresh[j].dom == dom {
			j++
		}
		old := m.byDomain[dom]
		merged := make([]uint32, 0, len(old)+j-i)
		k := 0
		for _, f := range m.fresh[i:j] {
			for k < len(old) && m.compare(old[k], f.id) < 0 {
				merged = append(merged, old[k])
				k++
			}
			merged = append(merged, f.id)
		}
		m.byDomain[dom] = append(merged, old[k:]...)
		i = j
	}
	m.fresh = m.fresh[:0]
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// testAndSet adds i and reports whether it was absent.
func (s bitset) testAndSet(i int) bool {
	w, bit := &s[i/64], uint64(1)<<(i%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

func (s bitset) clear(i int) { s[i/64] &^= uint64(1) << (i % 64) }

// appendIDKey appends the little-endian bytes of the IDs to dst, forming a
// collision-free map key for a row of interned values.
func appendIDKey(dst []byte, ids []uint32) []byte {
	for _, id := range ids {
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst
}

// seedKey renders the example in the historical tuple-key format the
// sampling rng has always been seeded from. relation.Tuple.Key moved to a
// collision-free length-prefixed encoding; the seed string stays on the old
// rendering so sampled bottom clauses — and hence learned definitions — are
// reproducible across releases. A seed needs determinism, not injectivity.
func seedKey(t relation.Tuple) string {
	return t.Relation + "(" + strings.Join(t.Values, "\x1f") + ")"
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
