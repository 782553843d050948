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
	"fmt"
	"math/rand"
	"sort"
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
// after the builder's first use: the similarity indexes, top-k_m answers and
// row-identity tables are built lazily from it and kept for the builder's
// lifetime. A Builder is safe for concurrent use.
type Builder struct {
	inst   *relation.Instance
	target *relation.Relation
	mds    []constraints.MD
	cfds   []constraints.CFD
	cfg    Config

	// simMu guards simIndexes and topK, so concurrent grounding
	// (Model.Predict from several goroutines) is safe. The indexes and the
	// memoized answers are immutable once stored.
	simMu sync.Mutex
	// simIndexes caches a similarity index per probed relation attribute,
	// built on first probe.
	simIndexes map[relation.AttrRef]*similarity.Index
	// topK memoizes the top-k_m answer per probed attribute and interned
	// probe value, so it holds at most one entry of at most k_m matches per
	// distinct value of the instance per probed attribute.
	topK map[probeKey][]similarity.Match

	// firstRows maps each relation to, per row position, the first
	// position holding an identical row; it is built once, on first use.
	rowsOnce  sync.Once
	firstRows map[string][]int32
}

// probeKey identifies a top-k_m answer: the probed attribute and the
// probe's interned ID.
type probeKey struct {
	ref relation.AttrRef
	id  uint32
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
	return &Builder{
		inst:       inst,
		target:     target,
		mds:        mds,
		cfds:       cfds,
		cfg:        cfg,
		simIndexes: make(map[relation.AttrRef]*similarity.Index),
		topK:       make(map[probeKey][]similarity.Match),
	}
}

// simMatch records one approximate match found through an MD: probe value c
// (from the MD's left side) matched value v in the right relation.
type simMatch struct {
	MD    constraints.MD
	Probe string
	Value string
	Score float64
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

// collect implements the relevant-tuple search of Algorithm 2.
func (b *Builder) collect(example relation.Tuple) (collection, error) {
	if len(example.Values) != b.target.Arity() {
		return collection{}, fmt.Errorf("bottomclause: example arity %d does not match target %s", len(example.Values), b.target)
	}
	rng := rand.New(rand.NewSource(b.cfg.Seed ^ int64(hashString(seedKey(example)))))

	// M: known constants annotated with the domains they were seen in.
	m := make(map[string]map[string]bool)
	addConst := func(v, domain string) bool {
		if m[v] == nil {
			m[v] = make(map[string]bool)
		}
		if m[v][domain] {
			return false
		}
		m[v][domain] = true
		return true
	}
	for i, v := range example.Values {
		addConst(v, b.target.Attrs[i].Domain)
	}

	var col collection
	seenMatches := make(map[string]bool)
	perRel := make(map[string]int)
	schema := b.inst.Schema()

	// Rows are identified by the first position holding an identical row,
	// so two positions are one tuple exactly when their values are equal.
	// Rows are only materialized to strings once they are actually added
	// to the clause.
	firstRows := b.rowIdentities()
	type rowRef struct {
		rel   string
		first int32
	}
	seenTuples := make(map[rowRef]bool)
	seenRows := make(map[int32]bool)
	addTuple := func(rel string, pos int) (relation.Tuple, bool) {
		ref := rowRef{rel, firstRows[rel][pos]}
		if seenTuples[ref] {
			return relation.Tuple{}, false
		}
		if b.cfg.SampleSize > 0 && perRel[rel] >= b.cfg.SampleSize {
			return relation.Tuple{}, false
		}
		seenTuples[ref] = true
		perRel[rel]++
		t := b.inst.TupleAt(rel, pos)
		col.tuples = append(col.tuples, t)
		return t, true
	}

	mds := b.activeMDs()

	for iter := 0; iter < b.cfg.Iterations; iter++ {
		frontier := snapshotConstants(m)
		var added []relation.Tuple

		for _, relName := range schema.Names() {
			rel := schema.Relation(relName)
			// A relation whose sample is full takes no more tuples, so its
			// rows are not selected. Its similarity matches are still
			// searched: each one becomes a similarity literal.
			full := b.cfg.SampleSize > 0 && perRel[relName] >= b.cfg.SampleSize
			var candidates []int

			// Exact selection over comparable attributes: σ_{A∈M}(R).
			for a := 0; a < rel.Arity() && !full; a++ {
				domain := rel.Attrs[a].Domain
				for _, c := range frontier {
					if !m[c][domain] {
						continue
					}
					candidates = append(candidates, b.inst.SelectPositions(relName, a, c)...)
				}
			}

			// MD-guided search: ψ_{B≈M}(R) (similarity) or exact joins over
			// the MD's compared attributes, depending on the mode.
			for _, md := range mds {
				if md.RightRel != relName {
					continue
				}
				rIdx := md.RightAttrIndexes(schema)
				for k, pair := range md.Similar {
					leftDomain := b.attrDomain(md.LeftRel, pair.Left)
					ra := rIdx[k]
					if ra < 0 {
						continue
					}
					for _, c := range frontier {
						if !m[c][leftDomain] {
							continue
						}
						switch b.cfg.MDMode {
						case MDExact:
							if !full {
								candidates = append(candidates, b.inst.SelectPositions(relName, ra, c)...)
							}
						case MDSimilarity:
							for _, match := range b.similar(relName, ra, c) {
								if !full {
									candidates = append(candidates, b.inst.SelectPositions(relName, ra, match.Value)...)
								}
								if match.Value != c {
									key := md.Name + "\x1f" + c + "\x1f" + match.Value
									if !seenMatches[key] {
										seenMatches[key] = true
										col.simMatches = append(col.simMatches, simMatch{
											MD: md, Probe: c, Value: match.Value, Score: match.Score,
										})
									}
								}
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
			clear(seenRows)
			kept, first := candidates[:0], firstRows[relName]
			for _, p := range candidates {
				if !seenRows[first[p]] {
					seenRows[first[p]] = true
					kept = append(kept, p)
				}
			}
			candidates = kept
			// Respect the per-relation sample size by sampling the
			// candidates deterministically.
			if b.cfg.SampleSize > 0 {
				if budget := b.cfg.SampleSize - perRel[relName]; len(candidates) > budget {
					rng.Shuffle(len(candidates), func(i, j int) {
						candidates[i], candidates[j] = candidates[j], candidates[i]
					})
					candidates = candidates[:budget]
				}
			}
			for _, p := range candidates {
				if t, ok := addTuple(relName, p); ok {
					added = append(added, t)
				}
			}
		}

		// Extract new constants from the tuples added this round.
		grew := false
		for _, t := range added {
			rel := schema.Relation(t.Relation)
			for a, v := range t.Values {
				if addConst(v, rel.Attrs[a].Domain) {
					grew = true
				}
			}
		}
		if !grew && len(added) == 0 {
			break
		}
	}
	// Every match found is kept, whether or not a tuple holding its value
	// was sampled; order them deterministically.
	sort.SliceStable(col.simMatches, func(i, j int) bool {
		a, b := col.simMatches[i], col.simMatches[j]
		if a.MD.Name != b.MD.Name {
			return a.MD.Name < b.MD.Name
		}
		if a.Probe != b.Probe {
			return a.Probe < b.Probe
		}
		return a.Value < b.Value
	})
	return col, nil
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

// similar returns the top-k_m values of the given relation attribute similar
// to the probe, using a cached blocked index. Answers for probes interned in
// the instance are memoized; callers must not modify the returned slice.
func (b *Builder) similar(rel string, attr int, probe string) []similarity.Match {
	ref := relation.AttrRef{Relation: rel, Attr: attr}
	id, interned := b.inst.Interner().Lookup(probe)
	key := probeKey{ref, id}
	b.simMu.Lock()
	if interned {
		if matches, ok := b.topK[key]; ok {
			b.simMu.Unlock()
			return matches
		}
	}
	idx, ok := b.simIndexes[ref]
	if !ok {
		idx = similarity.NewIndex(b.inst.DistinctValues(rel, attr), similarity.DefaultOptions(), b.cfg.SimilarityThreshold)
		b.simIndexes[ref] = idx
	}
	b.simMu.Unlock()
	// Aligning outside the lock lets two goroutines compute the same answer
	// at once; both store equal values.
	matches := idx.TopK(probe, b.cfg.KM)
	if interned {
		b.simMu.Lock()
		b.topK[key] = matches
		b.simMu.Unlock()
	}
	return matches
}

// rowIdentities returns, per relation, the first position of each row's
// values, building the tables on first use.
func (b *Builder) rowIdentities() map[string][]int32 {
	b.rowsOnce.Do(func() {
		b.firstRows = make(map[string][]int32)
		var ids []uint32
		var key []byte
		for _, rel := range b.inst.Schema().Names() {
			n := b.inst.Count(rel)
			first := make([]int32, n)
			byValue := make(map[string]int32, n)
			for p := range n {
				ids = b.inst.RowIDs(ids[:0], rel, p)
				key = appendIDKey(key[:0], ids)
				q, ok := byValue[string(key)]
				if !ok {
					q = int32(p)
					byValue[string(key)] = q
				}
				first[p] = q
			}
			b.firstRows[rel] = first
		}
	})
	return b.firstRows
}

func snapshotConstants(m map[string]map[string]bool) []string {
	out := make([]string, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

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
