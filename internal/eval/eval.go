// Package eval provides the evaluation harness used by the experiments:
// precision/recall/F1 metrics, k-fold cross validation over labelled
// examples, and simple wall-clock timing, mirroring the 5-fold
// cross-validated F1 and time reporting of Section 6.
package eval

import (
	"fmt"
	"math/rand"

	"dlearn/internal/relation"
)

// Metrics are the standard binary classification metrics.
type Metrics struct {
	TruePositives  int
	FalsePositives int
	TrueNegatives  int
	FalseNegatives int
}

// Add accumulates another metrics value (used to aggregate folds).
func (m *Metrics) Add(o Metrics) {
	m.TruePositives += o.TruePositives
	m.FalsePositives += o.FalsePositives
	m.TrueNegatives += o.TrueNegatives
	m.FalseNegatives += o.FalseNegatives
}

// Precision is TP / (TP + FP); it is defined as 0 when nothing was predicted
// positive.
func (m Metrics) Precision() float64 {
	d := m.TruePositives + m.FalsePositives
	if d == 0 {
		return 0
	}
	return float64(m.TruePositives) / float64(d)
}

// Recall is TP / (TP + FN); it is defined as 0 when there are no positives.
func (m Metrics) Recall() float64 {
	d := m.TruePositives + m.FalseNegatives
	if d == 0 {
		return 0
	}
	return float64(m.TruePositives) / float64(d)
}

// F1 is the harmonic mean of precision and recall.
func (m Metrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.2f R=%.2f F1=%.2f (tp=%d fp=%d tn=%d fn=%d)",
		m.Precision(), m.Recall(), m.F1(), m.TruePositives, m.FalsePositives, m.TrueNegatives, m.FalseNegatives)
}

// Split is one train/test partition of a labelled example set.
type Split struct {
	TrainPos, TrainNeg []relation.Tuple
	TestPos, TestNeg   []relation.Tuple
}

// KFold partitions the examples into k cross-validation splits. The split is
// deterministic for a given seed. k must be at least 2 and at most the size
// of the smaller class.
func KFold(pos, neg []relation.Tuple, k int, seed int64) ([]Split, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: k must be at least 2, got %d", k)
	}
	if len(pos) < k || len(neg) < k {
		return nil, fmt.Errorf("eval: need at least k=%d examples per class (have %d pos, %d neg)", k, len(pos), len(neg))
	}
	rng := rand.New(rand.NewSource(seed))
	posIdx := rng.Perm(len(pos))
	negIdx := rng.Perm(len(neg))

	splits := make([]Split, k)
	for fold := 0; fold < k; fold++ {
		var s Split
		for i, pi := range posIdx {
			if i%k == fold {
				s.TestPos = append(s.TestPos, pos[pi])
			} else {
				s.TrainPos = append(s.TrainPos, pos[pi])
			}
		}
		for i, ni := range negIdx {
			if i%k == fold {
				s.TestNeg = append(s.TestNeg, neg[ni])
			} else {
				s.TrainNeg = append(s.TrainNeg, neg[ni])
			}
		}
		splits[fold] = s
	}
	return splits, nil
}

// HoldOut splits the examples into a single train/test partition with the
// given test fraction (used by the scalability experiments that fix a test
// set and grow the training set).
func HoldOut(pos, neg []relation.Tuple, testFraction float64, seed int64) (Split, error) {
	if testFraction <= 0 || testFraction >= 1 {
		return Split{}, fmt.Errorf("eval: test fraction must be in (0,1), got %f", testFraction)
	}
	rng := rand.New(rand.NewSource(seed))
	posIdx := rng.Perm(len(pos))
	negIdx := rng.Perm(len(neg))
	nTestPos := int(float64(len(pos)) * testFraction)
	nTestNeg := int(float64(len(neg)) * testFraction)
	if nTestPos == 0 || nTestNeg == 0 {
		return Split{}, fmt.Errorf("eval: test fraction %f leaves an empty test class", testFraction)
	}
	var s Split
	for i, pi := range posIdx {
		if i < nTestPos {
			s.TestPos = append(s.TestPos, pos[pi])
		} else {
			s.TrainPos = append(s.TrainPos, pos[pi])
		}
	}
	for i, ni := range negIdx {
		if i < nTestNeg {
			s.TestNeg = append(s.TestNeg, neg[ni])
		} else {
			s.TrainNeg = append(s.TrainNeg, neg[ni])
		}
	}
	return s, nil
}

// Predictor classifies target-relation tuples; core.Model satisfies it.
type Predictor interface {
	Predict(example relation.Tuple) (bool, error)
}

// EvaluateSplit runs a predictor over a split's test examples and returns
// the resulting metrics.
func EvaluateSplit(m Predictor, s Split) (Metrics, error) {
	var metrics Metrics
	for _, e := range s.TestPos {
		p, err := m.Predict(e)
		if err != nil {
			return Metrics{}, err
		}
		if p {
			metrics.TruePositives++
		} else {
			metrics.FalseNegatives++
		}
	}
	for _, e := range s.TestNeg {
		p, err := m.Predict(e)
		if err != nil {
			return Metrics{}, err
		}
		if p {
			metrics.FalsePositives++
		} else {
			metrics.TrueNegatives++
		}
	}
	return metrics, nil
}
