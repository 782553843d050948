// Package similarity implements the string-similarity operator DLearn uses
// to evaluate the ≈ predicate of matching dependencies. Following Section 5
// of the paper, the operator is the average of the Smith-Waterman-Gotoh local
// alignment similarity and the Length similarity, and similar value pairs are
// precomputed (with token blocking) before learning starts.
package similarity

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Options configures the combined similarity operator. The four scores
// must be multiples of 2^-10 within ±2^10 (see Options.scheme); NewIndex and
// SmithWatermanGotoh panic on a scheme off that grid.
type Options struct {
	// MatchScore is the alignment score for matching characters.
	MatchScore float64
	// MismatchScore is the alignment score for mismatching characters
	// (should be negative).
	MismatchScore float64
	// GapOpen is the penalty for opening a gap (should be negative).
	GapOpen float64
	// GapExtend is the penalty for extending a gap (should be negative and
	// not smaller in magnitude than GapOpen).
	GapExtend float64
	// CaseInsensitive lowercases both inputs before comparing.
	CaseInsensitive bool
}

// DefaultOptions returns the scoring scheme used throughout the repository.
func DefaultOptions() Options {
	return Options{
		MatchScore:      1.0,
		MismatchScore:   -0.5,
		GapOpen:         -1.0,
		GapExtend:       -0.25,
		CaseInsensitive: true,
	}
}

// Func is a normalized string similarity function returning a score in
// [0, 1], with 1 meaning identical.
type Func func(a, b string) float64

// SmithWatermanGotoh computes the Smith-Waterman local alignment score with
// Gotoh's affine gap penalties, normalized by the best achievable score of
// the shorter string so the result lies in [0, 1].
func SmithWatermanGotoh(a, b string, opts Options) float64 {
	ra, rb := opts.fold(a), opts.fold(b)
	s, _ := opts.mustScheme().swg(ra, rb, make([]int, 2*len(rb)), 0)
	return s
}

// fold returns the runes the alignment compares: the string lowercased
// under CaseInsensitive, as is otherwise.
func (o Options) fold(s string) []rune {
	if o.CaseInsensitive {
		s = strings.ToLower(s)
	}
	return []rune(s)
}

// scheme is a scoring scheme scaled onto the integers: every score of the
// Options times scale. Each sum the alignment DP forms is then an exact
// integer, and raw/scale (scale a power of two) is bit for bit the score a
// float64 DP over the unscaled Options computes.
type scheme struct {
	opts                          Options
	match, mismatch, open, extend int
	scale                         float64
}

// scheme scales the Options by the smallest power of two, at most 2^10,
// that makes all four scores whole. It reports false when the scores are
// not on the 2^-10 grid within ±2^10.
func (o Options) scheme() (scheme, bool) {
	scores := []float64{o.MatchScore, o.MismatchScore, o.GapOpen, o.GapExtend}
	for _, s := range scores {
		if math.Abs(s) > 1<<10 || s*(1<<10) != math.Trunc(s*(1<<10)) {
			return scheme{}, false
		}
	}
	scale := 1.0
	for _, s := range scores {
		for s*scale != math.Trunc(s*scale) {
			scale *= 2
		}
	}
	return scheme{
		opts:     o,
		match:    int(o.MatchScore * scale),
		mismatch: int(o.MismatchScore * scale),
		open:     int(o.GapOpen * scale),
		extend:   int(o.GapExtend * scale),
		scale:    scale,
	}, true
}

// mustScheme is scheme for callers that cannot report an error.
func (o Options) mustScheme() scheme {
	s, ok := o.scheme()
	if !ok {
		panic(fmt.Sprintf("similarity: scores of %+v are not multiples of 2^-10 within ±2^10", o))
	}
	return s
}

// swg is the normalized alignment similarity behind SmithWatermanGotoh and
// Index.TopK; rows is scratch space as align requires. It reports false,
// with no score, when align abandoned the alignment below cutoff; a cutoff
// of 0 or less never abandons.
func (s scheme) swg(ra, rb []rune, rows []int, cutoff int) (float64, bool) {
	if len(ra) == 0 || len(rb) == 0 {
		if len(ra) == 0 && len(rb) == 0 {
			return 1, true
		}
		return 0, true
	}
	raw := s.align(ra, rb, rows, cutoff)
	if raw < cutoff {
		return 0, false
	}
	return normalizeSWG(float64(raw)/s.scale, min(len(ra), len(rb)), s.opts), true
}

// align returns the best local alignment score of two non-empty rune
// slices in scaled units. rows is scratch space of at least 2*len(rb) ints;
// its contents are overwritten, so one buffer serves any number of
// sequential calls.
//
// A positive cutoff lets align stop early with some result below cutoff
// once no alignment can reach it; any result at or above cutoff is exact.
// It is sound only for a positive match score and non-positive penalties
// (Index.bounded): then no cell of row i' > i exceeds the largest cell of
// row i by more than match·(i'−i), since each row aligns at most one
// character of ra.
func (s scheme) align(ra, rb []rune, rows []int, cutoff int) int {
	n := len(ra)
	// Column j of row i is cell (i+1, j+1) of the DP; column 0 of every
	// row scores 0 and is not stored.
	// h[j]: best score of an alignment ending at the cell. A row overwrites
	//       h in place, so h[j] still holds the row above until column j.
	// e[j]: best score of an alignment ending at the cell with a gap in a.
	// f:    best score of an alignment ending at the cell with a gap in b.
	h, e := rows[:len(rb)], rows[len(rb):2*len(rb)]
	h, e = h[:len(rb)], e[:len(rb)] // lets the compiler drop the inner loop's bounds checks
	clear(h)
	clear(e)
	best := 0
	for i, ai := range ra {
		// diag and left are the cells up-left and left of column j.
		diag, left, f, rowMax := 0, 0, 0, 0
		for j, bj := range rb {
			up := h[j]
			sub := s.mismatch
			if ai == bj {
				sub = s.match
			}
			e[j] = max(e[j]+s.extend, up+s.open)
			f = max(f+s.extend, left+s.open)
			score := max(0, diag+sub, e[j], f)
			diag, left = up, score
			h[j] = score
			rowMax = max(rowMax, score)
		}
		best = max(best, rowMax)
		if reach := max(best, rowMax+s.match*(n-1-i)); reach < cutoff {
			return reach
		}
	}
	return best
}

// normalizeSWG turns a best local alignment score into the [0, 1]
// similarity: best over the score of aligning the shorter string perfectly.
func normalizeSWG(best float64, minLen int, opts Options) float64 {
	denom := float64(minLen) * opts.MatchScore
	if denom <= 0 {
		return 0
	}
	s := best / denom
	if s > 1 {
		s = 1
	}
	if s < 0 {
		s = 0
	}
	return s
}

// Length computes the length similarity: the length of the shorter string
// divided by the length of the longer one, in runes.
func Length(a, b string) float64 {
	return lengthSim(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
}

func lengthSim(la, lb int) float64 {
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	if la > lb {
		la, lb = lb, la
	}
	return float64(la) / float64(lb)
}

// Combined returns the similarity operator used by DLearn: the average of
// SmithWatermanGotoh and Length.
func Combined(opts Options) Func {
	return func(a, b string) float64 {
		return (SmithWatermanGotoh(a, b, opts) + Length(a, b)) / 2
	}
}

// Tokenize splits a string into lowercase alphanumeric tokens. It is used
// for blocking in the similarity join: two values are only compared when
// they share at least one token.
func Tokenize(s string) []string {
	s = strings.ToLower(s)
	return strings.FieldsFunc(s, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// TokenSet returns the set of tokens of a string.
func TokenSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, t := range Tokenize(s) {
		set[t] = true
	}
	return set
}
