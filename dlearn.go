// Package dlearn is a Go implementation of DLearn, the system described in
// "Learning Over Dirty Data Without Cleaning" (Picado, Davis, Termehchy,
// Lee — SIGMOD 2020). DLearn learns Horn-clause definitions of a target
// relation directly over a dirty relational database — one containing
// representational heterogeneity captured by matching dependencies (MDs) and
// integrity violations captured by conditional functional dependencies
// (CFDs) — without materializing any repaired instance. Learned clauses use
// repair literals to compactly represent the clauses one would learn over
// every possible repair.
//
// # The Engine API
//
// The package is used through three pieces:
//
//   - An Engine, built once with New and functional options, reusable and
//     safe for concurrent use. Its methods are context-first: cancellation
//     and deadlines reach into the covering loop, the parallel coverage
//     worker pool and every θ-subsumption search.
//   - A ProblemBuilder, which assembles a learning task fluently and
//     centralizes validation.
//   - An optional Observer, which streams progress events (phase timings,
//     covering iterations, clause decisions) to the caller.
//
// A minimal end-to-end use looks like:
//
//	schema := dlearn.NewSchema()
//	schema.MustAdd(dlearn.NewRelation("movies",
//		dlearn.Attr("id", "imdb_id"), dlearn.Attr("title", "imdb_title")))
//	db := dlearn.NewInstance(schema)
//	db.MustInsert("movies", "m1", "Superbad (2007)")
//
//	target := dlearn.NewRelation("highGrossing", dlearn.Attr("title", "bom_title"))
//	problem, err := dlearn.NewProblem(target).
//		OnInstance(db).
//		WithMDs(dlearn.SimpleMD("md_title", "highGrossing", "title", "movies", "title")).
//		PosValues("Superbad").
//		Build()
//	if err != nil { ... }
//
//	eng := dlearn.New(dlearn.WithThreads(8), dlearn.WithSeed(1))
//	def, report, err := eng.Learn(ctx, problem)
//
// Under the hood the package fronts the internal packages: the in-memory
// relational engine, the similarity operator, the constraint and repair
// machinery, the θ-subsumption engine, the covering learner, the
// Castor-style baselines, the synthetic dataset generators that stand in for
// the paper's Magellan datasets, and the experiment harness that regenerates
// every table and figure of the paper's evaluation. See the examples
// directory for complete runnable programs.
package dlearn

import (
	"dlearn/internal/baseline"
	"dlearn/internal/bench"
	"dlearn/internal/constraints"
	"dlearn/internal/core"
	"dlearn/internal/datagen"
	"dlearn/internal/eval"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// Schema, relation and instance types of the in-memory relational substrate.
type (
	// Schema is a set of relation descriptors.
	Schema = relation.Schema
	// Relation describes one relation symbol and its attributes.
	Relation = relation.Relation
	// Attribute describes one column: name, type, comparability domain and
	// whether its values stay constants in learned clauses.
	Attribute = relation.Attribute
	// Instance is an in-memory database instance.
	Instance = relation.Instance
	// Tuple is one row of a relation (also used for training examples).
	Tuple = relation.Tuple
)

// Constraint types.
type (
	// MD is a matching dependency (Section 2.2 of the paper).
	MD = constraints.MD
	// CFD is a conditional functional dependency (Section 2.3).
	CFD = constraints.CFD
	// AttrPair is one compared attribute pair of an MD's left-hand side.
	AttrPair = constraints.AttrPair
)

// Learning types.
type (
	// Problem is a learning task: instance, constraints, target, examples.
	// Assemble one with NewProblem.
	Problem = core.Problem
	// Config controls the learner; prefer configuring an Engine with
	// functional options over constructing a Config by hand.
	Config = core.Config
	// Definition is a learned set of Horn clauses.
	Definition = logic.Definition
	// Clause is one learned Horn clause.
	Clause = logic.Clause
	// Model packages a definition with everything needed to classify. It is
	// safe for concurrent use.
	Model = core.Model
	// Report summarizes a learning run.
	Report = core.Report
)

// Evaluation types.
type (
	// Metrics are precision/recall/F1 classification metrics.
	Metrics = eval.Metrics
	// Split is one train/test partition.
	Split = eval.Split
)

// Dataset generation types (synthetic stand-ins for the paper's datasets).
type (
	// Dataset is a generated learning task.
	Dataset = datagen.Dataset
	// MoviesConfig configures the IMDB+OMDB generator.
	MoviesConfig = datagen.MoviesConfig
	// ProductsConfig configures the Walmart+Amazon generator.
	ProductsConfig = datagen.ProductsConfig
	// CitationsConfig configures the DBLP+Google Scholar generator.
	CitationsConfig = datagen.CitationsConfig
)

// Baseline system identifiers (Section 6.1.3).
type System = baseline.System

// The systems compared in the paper's evaluation.
const (
	CastorNoMD     = baseline.CastorNoMD
	CastorExact    = baseline.CastorExact
	CastorClean    = baseline.CastorClean
	DLearn         = baseline.DLearn
	DLearnCFD      = baseline.DLearnCFD
	DLearnRepaired = baseline.DLearnRepaired
)

// Schema construction.

// NewSchema returns an empty schema.
func NewSchema() *Schema { return relation.NewSchema() }

// NewRelation builds a relation descriptor.
func NewRelation(name string, attrs ...Attribute) *Relation {
	return relation.NewRelation(name, attrs...)
}

// Attr declares a string attribute in the given comparability domain; its
// values become join variables in learned clauses.
func Attr(name, domain string) Attribute { return relation.Attr(name, domain) }

// ConstAttr declares a string attribute whose values stay constants in
// learned clauses (genres, categories, ratings, ...).
func ConstAttr(name, domain string) Attribute { return relation.ConstAttr(name, domain) }

// NewInstance creates an empty instance of a schema.
func NewInstance(schema *Schema) *Instance { return relation.NewInstance(schema) }

// NewTuple builds a tuple (or training example) of the named relation.
func NewTuple(rel string, values ...string) Tuple { return relation.NewTuple(rel, values...) }

// Constraint construction.

// SimpleMD builds the common single-attribute matching dependency
// left[attr] ≈ right[attr'] → left[attr] ⇌ right[attr'].
func SimpleMD(name, leftRel, leftAttr, rightRel, rightAttr string) MD {
	return constraints.SimpleMD(name, leftRel, leftAttr, rightRel, rightAttr)
}

// NewMD builds a matching dependency with an explicit compared-attribute
// list and matched pair.
func NewMD(name, leftRel, rightRel string, similar []AttrPair, matchLeft, matchRight string) MD {
	return constraints.NewMD(name, leftRel, rightRel, similar, matchLeft, matchRight)
}

// FD builds an unconditional functional dependency X → A.
func FD(name, rel string, lhs []string, rhs string) CFD {
	return constraints.FD(name, rel, lhs, rhs)
}

// NewCFD builds a conditional functional dependency (X → A, tp).
func NewCFD(name, rel string, lhs []string, rhs string, pattern map[string]string) CFD {
	return constraints.NewCFD(name, rel, lhs, rhs, pattern)
}

// Configuration.

// DefaultConfig returns the learner configuration mirroring the paper's
// experimental setup. Prefer New with functional options; DefaultConfig
// remains for callers that assemble a Config for WithConfig.
func DefaultConfig() Config { return core.DefaultConfig() }

// Evaluation.

// KFold partitions labelled examples into k cross-validation splits.
func KFold(pos, neg []Tuple, k int, seed int64) ([]Split, error) {
	return eval.KFold(pos, neg, k, seed)
}

// HoldOut splits labelled examples into one train/test partition.
func HoldOut(pos, neg []Tuple, testFraction float64, seed int64) (Split, error) {
	return eval.HoldOut(pos, neg, testFraction, seed)
}

// EvaluateSplit scores a model on a split's test examples.
func EvaluateSplit(m *Model, s Split) (Metrics, error) { return eval.EvaluateSplit(m, s) }

// Dataset generation.

// DefaultMoviesConfig returns the default IMDB+OMDB generator configuration.
func DefaultMoviesConfig() MoviesConfig { return datagen.DefaultMoviesConfig() }

// DefaultProductsConfig returns the default Walmart+Amazon configuration.
func DefaultProductsConfig() ProductsConfig { return datagen.DefaultProductsConfig() }

// DefaultCitationsConfig returns the default DBLP+Google Scholar
// configuration.
func DefaultCitationsConfig() CitationsConfig { return datagen.DefaultCitationsConfig() }

// GenerateMovies generates the synthetic IMDB+OMDB dataset.
func GenerateMovies(cfg MoviesConfig) (*Dataset, error) { return datagen.Movies(cfg) }

// GenerateProducts generates the synthetic Walmart+Amazon dataset.
func GenerateProducts(cfg ProductsConfig) (*Dataset, error) { return datagen.Products(cfg) }

// GenerateCitations generates the synthetic DBLP+Google Scholar dataset.
func GenerateCitations(cfg CitationsConfig) (*Dataset, error) { return datagen.Citations(cfg) }

// Experiments.

// ExperimentOptions configures the experiment harness.
type ExperimentOptions = bench.Options

// DefaultExperimentOptions mirrors the paper's experimental setup; quick
// options shrink everything for smoke runs.
func DefaultExperimentOptions() ExperimentOptions { return bench.DefaultOptions() }

// QuickExperimentOptions returns the configuration used by `go test -bench`.
func QuickExperimentOptions() ExperimentOptions { return bench.QuickOptions() }
