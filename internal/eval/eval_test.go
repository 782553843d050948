package eval

import (
	"math"
	"testing"
	"testing/quick"

	"dlearn/internal/relation"
)

func TestMetrics(t *testing.T) {
	m := Metrics{TruePositives: 8, FalsePositives: 2, TrueNegatives: 18, FalseNegatives: 2}
	if p := m.Precision(); math.Abs(p-0.8) > 1e-9 {
		t.Errorf("precision = %f", p)
	}
	if r := m.Recall(); math.Abs(r-0.8) > 1e-9 {
		t.Errorf("recall = %f", r)
	}
	if f := m.F1(); math.Abs(f-0.8) > 1e-9 {
		t.Errorf("f1 = %f", f)
	}
	var zero Metrics
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero metrics should all be 0, not NaN")
	}
	other := Metrics{TruePositives: 1}
	zero.Add(other)
	if zero.TruePositives != 1 {
		t.Error("Add did not accumulate")
	}
	if s := m.String(); s == "" {
		t.Error("String should not be empty")
	}
}

func examples(rel string, n int, prefix string) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.NewTuple(rel, prefix+string(rune('a'+i%26))+string(rune('0'+i/26)))
	}
	return out
}

func TestKFold(t *testing.T) {
	pos := examples("t", 10, "p")
	neg := examples("t", 20, "n")
	splits, err := KFold(pos, neg, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 5 {
		t.Fatalf("expected 5 splits, got %d", len(splits))
	}
	seenTestPos := map[string]int{}
	for _, s := range splits {
		if len(s.TrainPos)+len(s.TestPos) != 10 || len(s.TrainNeg)+len(s.TestNeg) != 20 {
			t.Errorf("split does not partition the examples: %+v", s)
		}
		if len(s.TestPos) == 0 || len(s.TestNeg) == 0 {
			t.Error("every fold needs test examples of both classes")
		}
		for _, e := range s.TestPos {
			seenTestPos[e.Key()]++
		}
	}
	for k, c := range seenTestPos {
		if c != 1 {
			t.Errorf("example %s appears in %d test folds", k, c)
		}
	}
	if len(seenTestPos) != 10 {
		t.Errorf("all positives should appear in exactly one test fold, got %d", len(seenTestPos))
	}
	if _, err := KFold(pos, neg, 1, 1); err == nil {
		t.Error("k=1 must be rejected")
	}
	if _, err := KFold(pos[:2], neg, 5, 1); err == nil {
		t.Error("too few examples must be rejected")
	}
}

func TestHoldOut(t *testing.T) {
	pos := examples("t", 20, "p")
	neg := examples("t", 40, "n")
	s, err := HoldOut(pos, neg, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TestPos) != 5 || len(s.TestNeg) != 10 {
		t.Errorf("unexpected test sizes: %d pos, %d neg", len(s.TestPos), len(s.TestNeg))
	}
	if len(s.TrainPos) != 15 || len(s.TrainNeg) != 30 {
		t.Errorf("unexpected train sizes: %d pos, %d neg", len(s.TrainPos), len(s.TrainNeg))
	}
	if _, err := HoldOut(pos, neg, 0, 1); err == nil {
		t.Error("fraction 0 must be rejected")
	}
	if _, err := HoldOut(pos, neg, 1, 1); err == nil {
		t.Error("fraction 1 must be rejected")
	}
}

// constPredictor predicts a fixed label.
type constPredictor bool

func (c constPredictor) Predict(relation.Tuple) (bool, error) { return bool(c), nil }

func TestEvaluateSplit(t *testing.T) {
	s := Split{
		TestPos: examples("t", 4, "p"),
		TestNeg: examples("t", 6, "n"),
	}
	m, err := EvaluateSplit(constPredictor(true), s)
	if err != nil {
		t.Fatal(err)
	}
	if m.TruePositives != 4 || m.FalsePositives != 6 {
		t.Errorf("always-positive predictor confusion wrong: %+v", m)
	}
	m, err = EvaluateSplit(constPredictor(false), s)
	if err != nil {
		t.Fatal(err)
	}
	if m.FalseNegatives != 4 || m.TrueNegatives != 6 {
		t.Errorf("always-negative predictor confusion wrong: %+v", m)
	}
}

// Property: F1 is always within [0,1] and 0 when there are no true positives.
func TestPropertyF1Range(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		m := Metrics{TruePositives: int(tp), FalsePositives: int(fp), TrueNegatives: int(tn), FalseNegatives: int(fn)}
		f1 := m.F1()
		if f1 < 0 || f1 > 1 || math.IsNaN(f1) {
			return false
		}
		if tp == 0 && f1 != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
