// Package similarity implements the string-similarity operator DLearn uses
// to evaluate the ≈ predicate of matching dependencies. Following Section 5
// of the paper, the operator is the average of the Smith-Waterman-Gotoh local
// alignment similarity and the Length similarity, and similar value pairs are
// precomputed (with token blocking) before learning starts.
package similarity

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Options configures the combined similarity operator.
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
	return swg(ra, rb, opts, make([]float64, 3*(len(rb)+1)))
}

// fold returns the runes the alignment compares: the string lowercased
// under CaseInsensitive, as is otherwise.
func (o Options) fold(s string) []rune {
	if o.CaseInsensitive {
		s = strings.ToLower(s)
	}
	return []rune(s)
}

// swg is the alignment kernel behind SmithWatermanGotoh and Index.TopK. rows
// is scratch space of at least 3*(len(rb)+1) floats; its contents are
// overwritten, so one buffer serves any number of sequential calls.
func swg(ra, rb []rune, opts Options, rows []float64) float64 {
	if len(ra) == 0 || len(rb) == 0 {
		if len(ra) == 0 && len(rb) == 0 {
			return 1
		}
		return 0
	}
	n, m := len(ra), len(rb)
	// h[j]: best score of an alignment ending at (i, j).
	// e[j]: best score of an alignment ending at (i, j) with a gap in a.
	// f:     best score of an alignment ending at (i, j) with a gap in b.
	h, e, prevH := rows[:m+1], rows[m+1:2*(m+1)], rows[2*(m+1):3*(m+1)]
	clear(rows[:3*(m+1)])
	best := 0.0
	for i := 1; i <= n; i++ {
		prevH, h = h, prevH
		h[0] = 0
		f := 0.0
		for j := 1; j <= m; j++ {
			sub := opts.MismatchScore
			if ra[i-1] == rb[j-1] {
				sub = opts.MatchScore
			}
			e[j] = max2(e[j]+opts.GapExtend, prevH[j]+opts.GapOpen)
			f = max2(f+opts.GapExtend, h[j-1]+opts.GapOpen)
			score := max2(0, prevH[j-1]+sub)
			score = max2(score, e[j])
			score = max2(score, f)
			h[j] = score
			if score > best {
				best = score
			}
		}
	}
	return normalizeSWG(best, min(n, m), opts)
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

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
