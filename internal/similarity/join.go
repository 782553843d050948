package similarity

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// Match is one similar value found for a probe value.
type Match struct {
	Value string
	Score float64
}

// Index precomputes, for a fixed set of candidate values, the data needed to
// answer top-k similarity probes efficiently: a token inverted index used for
// blocking plus, per value, the runes the alignment compares. It corresponds
// to the paper's precomputation of pairs of similar values (Section 5). An
// Index is immutable after NewIndex and safe for concurrent use.
//
// TopK is exact but bounded. Under a scheme with a positive match score and
// non-positive penalties, an alignment scores at most one match per aligned
// character pair, so the normalized SWG score of a pair is at most the size
// of the multiset intersection of its folded runes over the shorter length.
// Averaged with the exact Length similarity this bounds the combined score
// from above, and TopK aligns candidates in descending bound order only
// until the bound can no longer reach the threshold or the k-th score. Under
// the same scheme each alignment runs with a cutoff (scheme.align): it stops
// as soon as it can no longer reach the score that would admit its value.
type Index struct {
	scheme    scheme
	threshold float64
	// bounded reports whether the scheme admits the character bound and
	// the alignment cutoff (see boundSound); without it every candidate is
	// aligned in full.
	bounded bool
	values  []string
	// folded[i] is value i's folded runes (Options.fold), sorted[i] the same
	// runes sorted (for the multiset intersection) and runes[i] its rune
	// count (for the Length similarity).
	folded [][]rune
	sorted [][]rune
	runes  []int
	// dup marks positions whose value already occurs at a lower position.
	dup    []bool
	tokens map[string][]int // token -> positions into values
	// exact maps a value to its positions, so exact matches are always
	// found even when tokenization yields nothing.
	exact map[string][]int
}

// NewIndex builds an index over the candidate values, scored by
// Combined(opts). threshold is the minimum combined similarity for a pair to
// be considered similar (the ≈ operator holds iff score >= threshold).
func NewIndex(values []string, opts Options, threshold float64) *Index {
	n := len(values)
	idx := &Index{
		scheme:    opts.mustScheme(),
		threshold: threshold,
		bounded:   boundSound(opts),
		values:    make([]string, n),
		folded:    make([][]rune, n),
		sorted:    make([][]rune, n),
		runes:     make([]int, n),
		dup:       make([]bool, n),
		tokens:    make(map[string][]int),
		exact:     make(map[string][]int),
	}
	copy(idx.values, values)
	for i, v := range idx.values {
		idx.dup[i] = len(idx.exact[v]) > 0
		idx.exact[v] = append(idx.exact[v], i)
		idx.folded[i] = opts.fold(v)
		idx.sorted[i] = sortedRunes(idx.folded[i])
		idx.runes[i] = utf8.RuneCountInString(v)
		for t := range TokenSet(v) {
			idx.tokens[t] = append(idx.tokens[t], i)
		}
	}
	return idx
}

// boundSound reports whether the character bound and the alignment cutoff
// of TopK hold under a scheme on the grid of Options.scheme: a positive
// match score and non-positive mismatch and gap scores (DefaultOptions
// qualifies).
func boundSound(o Options) bool {
	return o.MatchScore > 0 && o.MismatchScore <= 0 && o.GapOpen <= 0 && o.GapExtend <= 0
}

// sortedRunes returns a sorted copy of rs.
func sortedRunes(rs []rune) []rune {
	out := slices.Clone(rs)
	slices.Sort(out)
	return out
}

// commonRunes returns the size of the multiset intersection of two sorted
// rune slices.
func commonRunes(a, b []rune) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Len returns the number of indexed values.
func (idx *Index) Len() int { return len(idx.values) }

// boundedPos is a candidate of TopK: an index position and the upper bound
// of its score.
type boundedPos struct {
	pos int
	ub  float64
}

// TopK returns the k most similar indexed values to the probe (score >=
// threshold), best first. Ties are broken lexicographically so results are
// deterministic. k <= 0 means no limit. The result equals scoring every
// blocked candidate with Combined(opts) (BruteForceTopK over
// idx.candidates(probe)); candidates whose bound cannot reach the answer
// are never aligned, and an alignment that can no longer reach it stops.
func (idx *Index) TopK(probe string, k int) []Match {
	pf := idx.scheme.opts.fold(probe)
	ps := sortedRunes(pf)
	pn := utf8.RuneCountInString(probe)

	var cands []boundedPos
	maxLen := 0
	for _, pos := range idx.candidates(probe) {
		if idx.dup[pos] {
			continue
		}
		ub := idx.bound(pf, ps, pn, pos)
		if ub < idx.threshold {
			continue
		}
		cands = append(cands, boundedPos{pos, ub})
		maxLen = max(maxLen, len(idx.folded[pos]))
	}
	// Among equal bounds position order serves as well as any: the loop
	// skips a candidate only when it cannot enter the answer, so the answer
	// does not depend on the order in which candidates are aligned.
	slices.SortFunc(cands, func(a, b boundedPos) int {
		if a.ub != b.ub {
			return cmp.Compare(b.ub, a.ub)
		}
		return cmp.Compare(a.pos, b.pos)
	})

	rows := make([]int, 2*maxLen)
	var top []Match
	for _, c := range cands {
		need := idx.threshold
		if k > 0 && len(top) == k {
			// A candidate bounded strictly below the current k-th score
			// cannot enter the top k, and neither can any later one. An
			// equal bound must still be scored: the lexicographic
			// tie-break may admit it.
			if c.ub < top[k-1].Score {
				break
			}
			need = max(need, top[k-1].Score)
		}
		vf := idx.folded[c.pos]
		ls := lengthSim(pn, idx.runes[c.pos])
		sw, ok := idx.scheme.swg(pf, vf, rows, idx.cutoff(need, ls, min(len(pf), len(vf))))
		if !ok {
			continue
		}
		s := (sw + ls) / 2
		if s < idx.threshold {
			continue
		}
		m := Match{Value: idx.values[c.pos], Score: s}
		if k <= 0 {
			top = append(top, m)
			continue
		}
		top = insertMatch(top, m, k)
	}
	if k <= 0 {
		slices.SortFunc(top, compareMatches)
	}
	return top
}

// cutoff returns the raw alignment score (scheme.align units) below which a
// pair whose Length similarity is ls and whose shorter side has minLen runes
// scores strictly below need, so its alignment may stop; 0, which never
// stops, when the scheme admits no cutoff. The exact threshold
// (2·need − ls)·minLen·match is rounded down and lowered by one more unit,
// so float rounding in it or in the combined score can never drop a pair
// that scores need exactly.
func (idx *Index) cutoff(need, ls float64, minLen int) int {
	if !idx.bounded {
		return 0
	}
	x := (2*need - ls) * float64(minLen) * float64(idx.scheme.match)
	if x <= 1 {
		return 0
	}
	return int(math.Floor(x)) - 1
}

// bound returns an upper bound of the combined score of the probe (folded
// runes pf, their sorted copy ps, rune count pn) against the value at pos,
// computed with the same float operations as the score itself so that it
// holds bit for bit; 1 when the scheme admits no bound.
func (idx *Index) bound(pf, ps []rune, pn, pos int) float64 {
	if !idx.bounded {
		return 1
	}
	vf := idx.folded[pos]
	var swgUB float64
	switch {
	case len(pf) > 0 && len(vf) > 0:
		// At most one match per aligned pair, and at most common pairs.
		common := commonRunes(ps, idx.sorted[pos])
		swgUB = normalizeSWG(float64(common)*idx.scheme.opts.MatchScore, min(len(pf), len(vf)), idx.scheme.opts)
	case len(pf) == len(vf):
		swgUB = 1 // both empty
	}
	return (swgUB + lengthSim(pn, idx.runes[pos])) / 2
}

// insertMatch inserts m into top, kept sorted best first (score descending,
// value ascending) and capped at k entries.
func insertMatch(top []Match, m Match, k int) []Match {
	i, _ := slices.BinarySearchFunc(top, m, compareMatches)
	if i >= k {
		return top
	}
	if len(top) < k {
		top = append(top, Match{})
	}
	copy(top[i+1:], top[i:])
	top[i] = m
	return top
}

// compareMatches orders matches best first: higher score, then smaller
// value.
func compareMatches(a, b Match) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	return strings.Compare(a.Value, b.Value)
}

// candidates returns the positions sharing at least one token with the probe
// (plus exact matches), ascending. When the probe produces no tokens the
// full value set is scanned, preserving correctness at the cost of speed.
func (idx *Index) candidates(probe string) []int {
	toks := TokenSet(probe)
	if len(toks) == 0 {
		out := make([]int, len(idx.values))
		for i := range idx.values {
			out[i] = i
		}
		return out
	}
	out := slices.Clone(idx.exact[probe])
	for t := range toks {
		out = append(out, idx.tokens[t]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// BruteForceTopK computes the same result as Index.TopK without blocking.
// It exists to validate the blocked index in tests and to serve as the
// baseline of the similarity-blocking ablation benchmark.
func BruteForceTopK(probe string, values []string, sim Func, threshold float64, k int) []Match {
	scored := make([]Match, 0, len(values))
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		if seen[v] {
			continue
		}
		seen[v] = true
		s := sim(probe, v)
		if s >= threshold {
			scored = append(scored, Match{Value: v, Score: s})
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].Value < scored[j].Value
	})
	if k > 0 && len(scored) > k {
		scored = scored[:k]
	}
	return scored
}
