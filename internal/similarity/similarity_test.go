package similarity

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSmithWatermanGotohIdentical(t *testing.T) {
	opts := DefaultOptions()
	if got := SmithWatermanGotoh("Superbad", "Superbad", opts); got != 1 {
		t.Errorf("identical strings should score 1, got %f", got)
	}
	if got := SmithWatermanGotoh("", "", opts); got != 1 {
		t.Errorf("two empty strings should score 1, got %f", got)
	}
	if got := SmithWatermanGotoh("abc", "", opts); got != 0 {
		t.Errorf("empty vs non-empty should score 0, got %f", got)
	}
}

func TestSmithWatermanGotohSubstring(t *testing.T) {
	opts := DefaultOptions()
	// "Superbad" aligns perfectly inside "Superbad (2007)".
	if got := SmithWatermanGotoh("Superbad", "Superbad (2007)", opts); got != 1 {
		t.Errorf("substring should score 1, got %f", got)
	}
	// Unrelated strings should score low.
	if got := SmithWatermanGotoh("Superbad", "Orphanage", opts); got > 0.6 {
		t.Errorf("unrelated strings scored too high: %f", got)
	}
}

func TestSmithWatermanGotohCaseInsensitive(t *testing.T) {
	opts := DefaultOptions()
	if got := SmithWatermanGotoh("SUPERBAD", "superbad", opts); got != 1 {
		t.Errorf("case-insensitive comparison should score 1, got %f", got)
	}
	opts.CaseInsensitive = false
	if got := SmithWatermanGotoh("SUPERBAD", "superbad", opts); got == 1 {
		t.Error("case-sensitive comparison should not score 1")
	}
}

func TestLength(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"abcd", "ab", 0.5},
		{"ab", "abcd", 0.5},
		{"abc", "abc", 1},
		{"", "", 1},
		{"", "abc", 0},
	}
	for _, c := range cases {
		if got := Length(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Length(%q, %q) = %f, want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestCombinedOrdersTitlesSensibly(t *testing.T) {
	sim := Combined(DefaultOptions())
	right := sim("Star Wars", "Star Wars: Episode IV - 1977")
	wrong := sim("Star Wars", "The Orphanage (2007)")
	if right <= wrong {
		t.Errorf("related title (%f) should score above unrelated (%f)", right, wrong)
	}
	if sim("Superbad", "Superbad") != 1 {
		t.Error("identical values must score 1 under the combined operator")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Star Wars: Episode IV - 1977")
	want := []string{"star", "wars", "episode", "iv", "1977"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
	if len(Tokenize("!!!")) != 0 {
		t.Error("punctuation-only string should yield no tokens")
	}
}

func TestIndexTopK(t *testing.T) {
	values := []string{
		"Star Wars: Episode IV - 1977",
		"Star Wars: Episode III - 2005",
		"Superbad (2007)",
		"Zoolander (2001)",
	}
	idx := NewIndex(values, DefaultOptions(), 0.5)
	matches := idx.TopK("Star Wars", 2)
	if len(matches) != 2 {
		t.Fatalf("expected 2 matches, got %v", matches)
	}
	for _, m := range matches {
		if m.Value != values[0] && m.Value != values[1] {
			t.Errorf("unexpected match %v", m)
		}
		if m.Score < 0.5 {
			t.Errorf("match below threshold returned: %v", m)
		}
	}
	if len(idx.TopK("Completely Unrelated XYZ", 5)) != 0 {
		t.Error("unrelated probe should produce no matches")
	}
	if idx.Len() != 4 {
		t.Errorf("Len = %d", idx.Len())
	}
}

func TestIndexTopKLimit(t *testing.T) {
	values := []string{"aaa 1", "aaa 2", "aaa 3", "aaa 4"}
	idx := NewIndex(values, DefaultOptions(), 0.1)
	if got := len(idx.TopK("aaa", 2)); got != 2 {
		t.Errorf("k=2 should cap results, got %d", got)
	}
	if got := len(idx.TopK("aaa", 0)); got != 4 {
		t.Errorf("k=0 should mean unlimited, got %d", got)
	}
}

func TestIndexExactMatchWithoutTokens(t *testing.T) {
	// Values that tokenize to nothing are still found by exact probes.
	idx := NewIndex([]string{"###", "abc"}, DefaultOptions(), 0.9)
	got := idx.TopK("###", 5)
	if len(got) != 1 || got[0].Value != "###" {
		t.Fatalf("exact match on token-less value failed: %v", got)
	}
}

func TestIndexSimilar(t *testing.T) {
	idx := NewIndex([]string{"Superbad (2007)"}, DefaultOptions(), 0.6)
	if got := idx.TopK("Superbad", 1); len(got) != 1 || got[0].Value != "Superbad (2007)" {
		t.Errorf("Superbad should be similar to Superbad (2007), got %v", got)
	}
	if got := idx.TopK("Zoolander", 1); len(got) != 0 {
		t.Errorf("Zoolander should not be similar to Superbad (2007), got %v", got)
	}
}

func TestIndexAgainstBruteForce(t *testing.T) {
	// Blocking is a sound approximation: every match it returns must also be
	// a brute-force match with the same score, and every brute-force match
	// that shares a token with the probe must be found by the index.
	values := []string{
		"Star Wars: Episode IV - 1977", "Star Wars: Episode III - 2005",
		"Superbad (2007)", "Zoolander (2001)", "The Orphanage (2007)",
		"star wars", "Jurassic Park", "Park Jurassic III",
	}
	sim := Combined(DefaultOptions())
	idx := NewIndex(values, DefaultOptions(), 0.45)
	probes := []string{"Star Wars", "Superbad", "Jurassic Park III", "Orphanage"}
	for _, p := range probes {
		blocked := idx.TopK(p, 0)
		brute := BruteForceTopK(p, values, sim, 0.45, 0)
		bruteScores := make(map[string]float64, len(brute))
		for _, m := range brute {
			bruteScores[m.Value] = m.Score
		}
		blockedSet := make(map[string]bool, len(blocked))
		for _, m := range blocked {
			blockedSet[m.Value] = true
			want, ok := bruteScores[m.Value]
			if !ok || math.Abs(want-m.Score) > 1e-9 {
				t.Errorf("probe %q: blocked match %v not confirmed by brute force", p, m)
			}
		}
		probeTokens := TokenSet(p)
		for _, m := range brute {
			shares := false
			for tok := range TokenSet(m.Value) {
				if probeTokens[tok] {
					shares = true
					break
				}
			}
			if shares && !blockedSet[m.Value] {
				t.Errorf("probe %q: token-sharing match %v missed by blocked index", p, m)
			}
		}
	}
}

// TestIndexTopKUnboundedScheme covers a scheme outside the bound's sign
// assumptions (a positive mismatch score): the index must then align every
// blocked candidate and still agree with the oracle.
func TestIndexTopKUnboundedScheme(t *testing.T) {
	opts := DefaultOptions()
	opts.MismatchScore = 0.5
	values := []string{"abcd x", "wxyz x", "ab x", "zzzzzzzz x", "x"}
	idx := NewIndex(values, opts, 0.5)
	if idx.bounded {
		t.Fatal("a positive mismatch score must disable the bound")
	}
	for _, k := range []int{0, 1, 2} {
		got := idx.TopK("dcba x", k)
		want := BruteForceTopK("dcba x", values, Combined(opts), 0.5, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: TopK = %v, oracle %v", k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: TopK = %v, oracle %v", k, got, want)
			}
		}
	}
}

// Property: both component similarities and the combined operator stay in
// [0, 1] and are symmetric.
func TestPropertySimilarityRangeAndSymmetry(t *testing.T) {
	sim := Combined(DefaultOptions())
	opts := DefaultOptions()
	f := func(a, b string) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		s1, s2 := sim(a, b), sim(b, a)
		swg := SmithWatermanGotoh(a, b, opts)
		l := Length(a, b)
		inRange := func(x float64) bool { return x >= 0 && x <= 1 && !math.IsNaN(x) }
		return inRange(s1) && inRange(swg) && inRange(l) && math.Abs(s1-s2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: identity always scores 1 under the combined operator.
func TestPropertyIdentityScoresOne(t *testing.T) {
	sim := Combined(DefaultOptions())
	f := func(a string) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		return sim(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the blocked index never returns a match below its threshold.
func TestPropertyIndexRespectsThreshold(t *testing.T) {
	values := []string{"alpha beta", "beta gamma", "gamma delta", "delta alpha"}
	idx := NewIndex(values, DefaultOptions(), 0.5)
	f := func(probe string) bool {
		if len(probe) > 32 {
			probe = probe[:32]
		}
		for _, m := range idx.TopK(probe, 10) {
			if m.Score < 0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzTopK checks the bounded Index.TopK against the unbounded oracle:
// BruteForceTopK over exactly the index's blocked candidates, which scores
// every candidate with Combined(DefaultOptions()). Values, order and scores
// must be identical for every k, so the bound may skip only alignments that
// cannot change the answer. values is newline-separated; th maps to a
// threshold in [0, 1].
func FuzzTopK(f *testing.F) {
	f.Add("star", "star wars\nstar wars\nstar trek\nwars star", uint8(100))       // duplicate values
	f.Add("ab", "\nabc\nab c\nb", uint8(0))                                       // an empty value
	f.Add("!!!", "!!!\n?!\nabc\n", uint8(50))                                     // a probe with no tokens: full scan
	f.Add("ab", "ab 1\nab 2\nab 3\nab 4 x", uint8(120))                           // equal-score ties between values
	f.Add("İstanbul", "İstanbul\nistanbul\nISTANBUL\ni̇stanbul x\nİ", uint8(140)) // "İ" folds to "i": bytes change, runes do not
	// "  c  cd" scores exactly what "dcbd cd" scores, with a bound equal to
	// that score, and wins the tie-break: the stop rule must still align it.
	f.Add("ab cd", "dcbd cd\n  c  cd", uint8(0))
	f.Add("Superbad", "Superbad (2007)\nSuper Bad\nbad super\nOrphanage (2007)", uint8(140))
	f.Fuzz(func(t *testing.T, probe, blob string, th uint8) {
		if len(probe) > 64 || len(blob) > 1024 {
			t.Skip()
		}
		values := strings.Split(blob, "\n")
		threshold := float64(th) / 255
		idx := NewIndex(values, DefaultOptions(), threshold)
		var blocked []string
		for _, pos := range idx.candidates(probe) {
			blocked = append(blocked, values[pos])
		}
		for _, k := range []int{0, 1, 2, 5} {
			got := idx.TopK(probe, k)
			want := BruteForceTopK(probe, blocked, Combined(DefaultOptions()), threshold, k)
			if len(got) != len(want) {
				t.Fatalf("TopK(%q, %d) = %v, oracle %v", probe, k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("TopK(%q, %d) = %v, oracle %v", probe, k, got, want)
				}
			}
		}
	})
}
