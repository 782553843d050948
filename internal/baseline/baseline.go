// Package baseline implements the systems DLearn is compared against in the
// paper's evaluation (Section 6.1.3):
//
//   - Castor-NoMD   — the covering learner without any MD information,
//   - Castor-Exact  — MDs used only as exact joins,
//   - Castor-Clean  — entity names pre-resolved to their best match, then
//     learning over the unified database,
//   - DLearn        — MD similarity search with repair literals,
//   - DLearn-CFD    — DLearn plus CFD repair literals,
//   - DLearn-Repaired — CFD violations repaired up front (minimal repair),
//     then DLearn with MD support only.
//
// All of them share the covering learner of internal/core; they differ only
// in how the database and the constraints are presented to it, which mirrors
// how the paper configures Castor.
package baseline

import (
	"context"
	"fmt"

	"dlearn/internal/bottomclause"
	"dlearn/internal/core"
	"dlearn/internal/logic"
	"dlearn/internal/repair"
	"dlearn/internal/similarity"
)

// System identifies one of the compared learners.
type System string

// The systems of Tables 4 and 5.
const (
	CastorNoMD     System = "Castor-NoMD"
	CastorExact    System = "Castor-Exact"
	CastorClean    System = "Castor-Clean"
	DLearn         System = "DLearn"
	DLearnCFD      System = "DLearn-CFD"
	DLearnRepaired System = "DLearn-Repaired"
)

// Result is the outcome of running one system on one problem.
type Result struct {
	System     System
	Definition *logic.Definition
	Model      *core.Model
	Report     *core.Report
}

// RunContext learns with the given system over the problem. The
// configuration is adjusted per system; cfg.BottomClause.KM, Iterations,
// SampleSize and the thresholds are honoured for all of them.
func RunContext(ctx context.Context, system System, p core.Problem, cfg core.Config) (*Result, error) {
	problem := p
	switch system {
	case CastorNoMD:
		cfg.BottomClause.MDMode = bottomclause.MDIgnore
		cfg.BottomClause.UseCFDs = false
	case CastorExact:
		cfg.BottomClause.MDMode = bottomclause.MDExact
		cfg.BottomClause.UseCFDs = false
	case CastorClean:
		// Resolve each entity to its single most similar counterpart, then
		// learn with exact joins over the unified values.
		threshold := cfg.BottomClause.SimilarityThreshold
		if threshold <= 0 {
			threshold = bottomclause.DefaultConfig().SimilarityThreshold
		}
		problem.Instance = repair.ResolveBestMatch(p.Instance, p.MDs, similarity.DefaultOptions(), threshold)
		cfg.BottomClause.MDMode = bottomclause.MDExact
		cfg.BottomClause.UseCFDs = false
	case DLearn:
		cfg.BottomClause.MDMode = bottomclause.MDSimilarity
		cfg.BottomClause.UseCFDs = false
	case DLearnCFD:
		cfg.BottomClause.MDMode = bottomclause.MDSimilarity
		cfg.BottomClause.UseCFDs = true
	case DLearnRepaired:
		repaired, _, err := repair.MinimalCFDRepair(p.Instance, p.CFDs)
		if err != nil {
			return nil, fmt.Errorf("baseline: %s: %w", system, err)
		}
		problem.Instance = repaired
		problem.CFDs = nil
		cfg.BottomClause.MDMode = bottomclause.MDSimilarity
		cfg.BottomClause.UseCFDs = false
	default:
		return nil, fmt.Errorf("baseline: unknown system %q", system)
	}

	learner := core.NewLearner(cfg)
	def, report, err := learner.LearnContext(ctx, problem)
	if err != nil {
		return nil, fmt.Errorf("baseline: %s: %w", system, err)
	}
	model := core.NewModel(def, problem, learner.Config())
	return &Result{System: system, Definition: def, Model: model, Report: report}, nil
}
