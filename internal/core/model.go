package core

import (
	"context"

	"dlearn/internal/bottomclause"
	"dlearn/internal/coverage"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// Model packages a learned definition with everything needed to classify new
// examples: the bottom-clause builder over the (dirty) database and the
// coverage evaluator. A test example is predicted positive when some clause
// of the definition covers it under Definition 3.4. A Model is safe for
// concurrent use: Predict and PredictAll may run from several goroutines on
// one Model, sharing its similarity indexes and evaluator probe memo.
type Model struct {
	Definition *logic.Definition
	builder    *bottomclause.Builder
	eval       *coverage.Evaluator
}

// NewModel builds a model for a learned definition over the given problem
// database using the learner's configuration.
func NewModel(def *logic.Definition, p Problem, cfg Config) *Model {
	return &Model{
		Definition: def,
		builder:    bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, cfg.BottomClause),
		eval: coverage.NewEvaluator(coverage.Options{
			Subsumption: cfg.Subsumption,
			Repair:      cfg.Repair,
			Threads:     cfg.Threads,
		}),
	}
}

// Predict reports whether the model classifies the example as positive.
func (m *Model) Predict(example relation.Tuple) (bool, error) {
	return m.PredictContext(context.Background(), example)
}

// PredictContext is Predict with cancellation: a cancelled prediction
// returns ctx.Err().
func (m *Model) PredictContext(ctx context.Context, example relation.Tuple) (bool, error) {
	g, err := m.builder.GroundBottomClause(example)
	if err != nil {
		return false, err
	}
	covered := m.eval.DefinitionCoversContext(ctx, m.Definition, g)
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return covered, nil
}

// PredictAll classifies a batch of examples.
func (m *Model) PredictAll(examples []relation.Tuple) ([]bool, error) {
	return m.PredictAllContext(context.Background(), examples)
}

// PredictAllContext classifies a batch of examples, stopping early when the
// context is cancelled.
func (m *Model) PredictAllContext(ctx context.Context, examples []relation.Tuple) ([]bool, error) {
	out := make([]bool, len(examples))
	for i, e := range examples {
		p, err := m.PredictContext(ctx, e)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// LearnModelContext learns a definition under the context and wraps it in a
// Model for prediction.
func LearnModelContext(ctx context.Context, p Problem, cfg Config) (*Model, *Report, error) {
	learner := NewLearner(cfg)
	def, report, err := learner.LearnContext(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	return NewModel(def, p, learner.Config()), report, nil
}
