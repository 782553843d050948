package bottomclause

import (
	"fmt"
	"math/rand"
	"sort"

	"dlearn/internal/relation"
	"dlearn/internal/similarity"
)

// referenceCollector is the string-keyed relevant-tuple search of
// Algorithm 2 that Builder.collect replaced: M maps each constant to the set
// of domain names it was seen in, every round re-sorts M into a frontier,
// rows are deduplicated and sampled by their rendered keys, and similarity
// matches are keyed by their rendered (MD, probe, value). It is kept
// test-only as the oracle FuzzGroundParity holds the integer implementation
// to: both must yield identical collections, hence identical clauses.
type referenceCollector struct {
	b       *Builder
	indexes map[relation.AttrRef]*similarity.Index
}

func newReferenceCollector(b *Builder) *referenceCollector {
	return &referenceCollector{b: b, indexes: make(map[relation.AttrRef]*similarity.Index)}
}

// selectValue answers σ_{attr=value}(rel); a value the instance never
// interned selects nothing.
func (r *referenceCollector) selectValue(rel string, attr int, value string) []int {
	id, ok := r.b.inst.Interner().Lookup(value)
	if !ok {
		return nil
	}
	return r.b.inst.SelectPositions(rel, attr, id)
}

// similar answers a top-k_m probe without memoizing it.
func (r *referenceCollector) similar(rel string, attr int, probe string) []similarity.Match {
	ref := relation.AttrRef{Relation: rel, Attr: attr}
	idx, ok := r.indexes[ref]
	if !ok {
		idx = similarity.NewIndex(r.b.inst.DistinctValues(rel, attr), similarity.DefaultOptions(), r.b.cfg.SimilarityThreshold)
		r.indexes[ref] = idx
	}
	return idx.TopK(probe, r.b.cfg.KM)
}

func (r *referenceCollector) collect(example relation.Tuple) (collection, error) {
	b := r.b
	if len(example.Values) != b.target.Arity() {
		return collection{}, fmt.Errorf("bottomclause: example arity %d does not match target %s", len(example.Values), b.target)
	}
	rng := rand.New(rand.NewSource(b.cfg.Seed ^ int64(hashString(seedKey(example)))))

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
	seenTuples := make(map[string]bool)
	schema := b.inst.Schema()
	addTuple := func(t relation.Tuple) bool {
		key := t.Key()
		if seenTuples[key] {
			return false
		}
		if b.cfg.SampleSize > 0 && perRel[t.Relation] >= b.cfg.SampleSize {
			return false
		}
		seenTuples[key] = true
		perRel[t.Relation]++
		col.tuples = append(col.tuples, t)
		return true
	}

	mds := b.activeMDs()
	for iter := 0; iter < b.cfg.Iterations; iter++ {
		frontier := make([]string, 0, len(m))
		for c := range m {
			frontier = append(frontier, c)
		}
		sort.Strings(frontier)
		var added []relation.Tuple

		for _, relName := range schema.Names() {
			rel := schema.Relation(relName)
			full := b.cfg.SampleSize > 0 && perRel[relName] >= b.cfg.SampleSize
			var candidates []int
			for a := 0; a < rel.Arity() && !full; a++ {
				domain := rel.Attrs[a].Domain
				for _, c := range frontier {
					if m[c][domain] {
						candidates = append(candidates, r.selectValue(relName, a, c)...)
					}
				}
			}
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
								candidates = append(candidates, r.selectValue(relName, ra, c)...)
							}
						case MDSimilarity:
							for _, match := range r.similar(relName, ra, c) {
								if !full {
									candidates = append(candidates, r.selectValue(relName, ra, match.Value)...)
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
			seenRows := make(map[string]bool)
			var tuples []relation.Tuple
			for _, p := range candidates {
				t := b.inst.TupleAt(relName, p)
				if key := t.Key(); !seenRows[key] {
					seenRows[key] = true
					tuples = append(tuples, t)
				}
			}
			if b.cfg.SampleSize > 0 {
				if budget := b.cfg.SampleSize - perRel[relName]; len(tuples) > budget {
					rng.Shuffle(len(tuples), func(i, j int) {
						tuples[i], tuples[j] = tuples[j], tuples[i]
					})
					tuples = tuples[:budget]
				}
			}
			for _, t := range tuples {
				if addTuple(t) {
					added = append(added, t)
				}
			}
		}

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
