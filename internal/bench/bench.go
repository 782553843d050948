// Package bench contains the experiment runners that regenerate every table
// and figure of the paper's evaluation (Section 6): Table 3 (dataset
// statistics), Table 4 (MD handling vs the Castor baselines), Table 5
// (DLearn-CFD vs DLearn-Repaired under injected CFD violations), Table 6
// (scaling the number of training examples), Table 7 (the effect of the
// number of iterations d) and Figure 1 (example and sample-size sweeps).
//
// Absolute numbers differ from the paper — the datasets are synthetic and
// the substrate is this repository's own in-memory engine rather than
// VoltDB — but the comparisons the paper draws (which system wins, how
// quality degrades with the violation rate, how time grows with k_m, d and
// the number of examples) are reproduced in shape.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"dlearn/internal/baseline"
	"dlearn/internal/core"
	"dlearn/internal/datagen"
	"dlearn/internal/eval"
	"dlearn/internal/observe"
)

// Options configures an experiment run.
type Options struct {
	// Quick shrinks every dataset and sweep so the whole suite finishes in
	// a couple of minutes; it is the mode used by `go test -bench`.
	Quick bool
	// Seed drives data generation and cross-validation splits.
	Seed int64
	// Threads is the coverage-testing parallelism (the paper uses 16).
	Threads int
	// Folds is the number of cross-validation folds (the paper uses 5).
	Folds int
	// Out receives the rendered tables; nil means os.Stdout.
	Out io.Writer
	// Observer receives the learning-run events of every fit the experiment
	// performs (a TimingCollector aggregates them into a machine-readable
	// summary); nil discards them.
	Observer observe.Observer
}

// DefaultOptions mirrors the paper's experimental setup.
func DefaultOptions() Options {
	return Options{Seed: 1, Threads: 16, Folds: 5}
}

// QuickOptions is the configuration used by the benchmark harness in
// bench_test.go.
func QuickOptions() Options {
	return Options{Quick: true, Seed: 1, Threads: 4, Folds: 2}
}

func (o Options) out() io.Writer {
	if o.Out != nil {
		return o.Out
	}
	return os.Stdout
}

func (o Options) folds() int {
	if o.Folds >= 2 {
		return o.Folds
	}
	if o.Quick {
		return 2
	}
	return 5
}

// learnerConfig builds the shared learner configuration for an experiment.
func (o Options) learnerConfig(km, iterations, sampleSize int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Threads = o.Threads
	if cfg.Threads <= 0 {
		cfg.Threads = DefaultOptions().Threads
	}
	cfg.Seed = o.Seed
	cfg.Observer = o.Observer
	cfg.BottomClause.KM = km
	cfg.BottomClause.Iterations = iterations
	cfg.BottomClause.SampleSize = sampleSize
	if o.Quick {
		if cfg.BottomClause.SampleSize > 4 {
			cfg.BottomClause.SampleSize = 4
		}
		cfg.GeneralizationSample = 4
		cfg.NegativeSearchSample = 16
		cfg.MaxClauses = 6
		cfg.Subsumption.MaxNodes = 10000
	}
	return cfg
}

// moviesConfig returns the IMDB+OMDB generator configuration for the given
// MD count and violation rate, scaled down in Quick mode.
func (o Options) moviesConfig(mdCount int, p float64) datagen.MoviesConfig {
	cfg := datagen.DefaultMoviesConfig()
	cfg.MDCount = mdCount
	cfg.ViolationRate = p
	cfg.Seed = o.Seed + 100
	if o.Quick {
		cfg.Movies = 100
		cfg.Positives = 12
		cfg.Negatives = 24
	}
	return cfg
}

func (o Options) productsConfig(p float64) datagen.ProductsConfig {
	cfg := datagen.DefaultProductsConfig()
	cfg.ViolationRate = p
	cfg.Seed = o.Seed + 200
	if o.Quick {
		cfg.Products = 100
		cfg.Positives = 12
		cfg.Negatives = 24
	}
	return cfg
}

func (o Options) citationsConfig(p float64) datagen.CitationsConfig {
	cfg := datagen.DefaultCitationsConfig()
	cfg.ViolationRate = p
	cfg.Seed = o.Seed + 300
	if o.Quick {
		cfg.Papers = 80
		cfg.Positives = 14
		cfg.Negatives = 28
	}
	return cfg
}

// iterationsFor returns the per-dataset iteration depth d used in the paper
// (Section 6.2.3): 3 for DBLP+Scholar, 4 for IMDB+OMDB, 5 for
// Walmart+Amazon. Quick mode trims them by one to stay fast.
func (o Options) iterationsFor(dataset string) int {
	d := 4
	switch dataset {
	case "dblp":
		d = 3
	case "walmart":
		d = 5
	}
	if o.Quick && d > 2 {
		d--
	}
	return d
}

// crossValidate learns with the given system on every fold and returns the
// aggregated metrics and the mean learning time in minutes. Cancelling the
// context aborts the current fold and returns its error.
func crossValidate(ctx context.Context, system baseline.System, ds *datagen.Dataset, cfg core.Config, folds int, seed int64) (eval.Metrics, float64, error) {
	splits, err := eval.KFold(ds.Problem.Pos, ds.Problem.Neg, folds, seed)
	if err != nil {
		return eval.Metrics{}, 0, err
	}
	var total eval.Metrics
	var minutes float64
	for _, split := range splits {
		problem := ds.Problem
		problem.Pos = split.TrainPos
		problem.Neg = split.TrainNeg
		start := time.Now()
		res, err := baseline.RunContext(ctx, system, problem, cfg)
		if err != nil {
			return eval.Metrics{}, 0, err
		}
		minutes += time.Since(start).Minutes()
		m, err := eval.EvaluateSplit(res.Model, split)
		if err != nil {
			return eval.Metrics{}, 0, err
		}
		total.Add(m)
	}
	return total, minutes / float64(folds), nil
}

// fprintf writes to the experiment output, ignoring write errors (the
// writers used here are stdout, buffers and test logs).
func fprintf(w io.Writer, format string, args ...interface{}) {
	_, _ = fmt.Fprintf(w, format, args...)
}
