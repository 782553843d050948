package similarity

import (
	"math"
	"testing"
	"unicode/utf8"
)

// floatSWG is the float64 Smith-Waterman-Gotoh DP over the unscaled
// Options, normalized like SmithWatermanGotoh. It is the oracle the integer
// kernel (scheme.align) must match bit for bit.
func floatSWG(ra, rb []rune, opts Options) float64 {
	if len(ra) == 0 || len(rb) == 0 {
		if len(ra) == 0 && len(rb) == 0 {
			return 1
		}
		return 0
	}
	n, m := len(ra), len(rb)
	h, e, prevH := make([]float64, m+1), make([]float64, m+1), make([]float64, m+1)
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

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestSchemeScale(t *testing.T) {
	sc, ok := DefaultOptions().scheme()
	if !ok || sc.scale != 4 || sc.match != 4 || sc.mismatch != -2 || sc.open != -4 || sc.extend != -1 {
		t.Fatalf("DefaultOptions scheme = %+v, %v; want scale 4 and scores 4, -2, -4, -1", sc, ok)
	}
	for _, o := range []Options{
		{MatchScore: 1, MismatchScore: 0.1},   // off the 2^-10 grid
		{MatchScore: 1, GapOpen: -1.0 / 2048}, // one step below it
		{MatchScore: 2048, MismatchScore: -1}, // beyond ±2^10
	} {
		if _, ok := o.scheme(); ok {
			t.Errorf("scheme(%+v) accepted a score off the grid", o)
		}
	}
}

// FuzzSWG checks the integer alignment kernel against the float64 DP,
// bit for bit, under random schemes on the 2^-10 grid: each score is an
// int8 over 2^(shift mod 11), so positive mismatch and gap scores and
// non-positive match scores occur too, with the cutoff off. Under schemes
// that admit the cutoff it checks that the kernel never reports a pair
// below a cutoff its full alignment reaches, and that the cutoff TopK
// derives from a pair's own combined score never drops that pair.
func FuzzSWG(f *testing.F) {
	f.Add("Superbad", "Superbad (2007)", int8(4), int8(-2), int8(-4), int8(-1), uint8(2), uint16(0))
	f.Add("dcba x", "abcd x", int8(2), int8(1), int8(-2), int8(-1), uint8(1), uint16(3)) // positive mismatch
	f.Add("star wars", "wars star", int8(3), int8(-5), int8(-7), int8(-1), uint8(10), uint16(9))
	f.Add("İstanbul", "istanbul", int8(1), int8(0), int8(0), int8(0), uint8(16), uint16(2)) // folding changes the rune count
	f.Add("", "abc", int8(1), int8(-1), int8(-1), int8(-1), uint8(0), uint16(1))
	f.Add("aaaa", "aaaa", int8(-1), int8(-1), int8(-1), int8(-1), uint8(0), uint16(0)) // non-positive match
	f.Fuzz(func(t *testing.T, a, b string, match, mismatch, open, extend int8, shift uint8, cut uint16) {
		if len(a) > 64 || len(b) > 64 {
			t.Skip()
		}
		d := float64(int(1) << (shift % 11))
		opts := Options{
			MatchScore:      float64(match) / d,
			MismatchScore:   float64(mismatch) / d,
			GapOpen:         float64(open) / d,
			GapExtend:       float64(extend) / d,
			CaseInsensitive: shift&16 != 0,
		}
		sc := opts.mustScheme()
		ra, rb := opts.fold(a), opts.fold(b)
		want := floatSWG(ra, rb, opts)
		rows := make([]int, 2*len(rb))
		got, ok := sc.swg(ra, rb, rows, 0)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("swg(%q, %q) under %+v = %v, %v; float DP %v", a, b, opts, got, ok, want)
		}
		if s := SmithWatermanGotoh(a, b, opts); math.Float64bits(s) != math.Float64bits(want) {
			t.Fatalf("SmithWatermanGotoh(%q, %q) under %+v = %v; float DP %v", a, b, opts, s, want)
		}
		if !boundSound(opts) || len(ra) == 0 || len(rb) == 0 {
			return
		}
		full := sc.align(ra, rb, rows, 0)
		for _, c := range []int{full - 1, full, full + 1, int(cut)} {
			r := sc.align(ra, rb, rows, c)
			if full >= c && r != full {
				t.Fatalf("align(%q, %q) under %+v with cutoff %d = %d; full alignment %d", a, b, opts, c, r, full)
			}
			if full < c && r >= c {
				t.Fatalf("align(%q, %q) under %+v with cutoff %d = %d; full alignment %d is below it", a, b, opts, c, r, full)
			}
		}
		idx := &Index{scheme: sc, bounded: true}
		ls := lengthSim(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
		need := (want + ls) / 2
		if _, ok := sc.swg(ra, rb, rows, idx.cutoff(need, ls, min(len(ra), len(rb)))); !ok {
			t.Fatalf("(%q, %q) under %+v: the cutoff for its own combined score %v drops it", a, b, opts, need)
		}
	})
}
