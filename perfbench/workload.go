package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"dlearn"
	"dlearn/internal/core"
	"dlearn/internal/datagen"
	"dlearn/internal/eval"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// What a workload's measured loop repeats.
const (
	timeLearn    = "learn"
	timeClassify = "classify"
)

// dataSpec sizes one generated dataset.
type dataSpec struct {
	Entities, Positives, Negatives int
}

// workload is one set of inputs the benchmark runs. The training problem
// is fixed by the workload (so its learned definition and held-out F1 can
// be recorded); the classification instance is generated from the
// benchmark's --seed.
type workload struct {
	Name    string
	Dataset string // "movies" or "products"
	// Train is the training dataset, generated with TrainSeed and split
	// one third held out (for F1) and two thirds for learning.
	Train     dataSpec
	TrainSeed int64
	// Classify is the labelled instance the model classifies, generated
	// from --seed; exactly its Positives and Negatives are classified.
	Classify dataSpec
	// Timed selects the measured loop: cycles of one cold Engine.Learn on
	// the training problem and one classification pass over the
	// classification tuples, or of one set-up and one pass.
	Timed string
	// Setups is how many times a run sets up before its measured loop,
	// for the setup_s median; a classify workload also sets up once a
	// cycle.
	Setups int
	// DefinitionSHA256 and F1 are the recorded outputs: the SHA-256 of the
	// learned Definition.String() and its held-out F1.
	DefinitionSHA256 string
	F1               float64
}

// workloads are the benchmark's named workloads. The recorded hashes and
// F1 values were taken from Engine.Learn when the benchmark was written;
// the learned definition is the same for every thread count.
var workloads = []workload{
	{
		Name:    "movies-learn",
		Dataset: "movies",
		Train:   dataSpec{Entities: 80, Positives: 30, Negatives: 50}, TrainSeed: 7,
		Classify:         dataSpec{Entities: 400, Positives: 60, Negatives: 140},
		Timed:            timeLearn,
		Setups:           51,
		DefinitionSHA256: "08135e86aef9339a4acc0f31e3530c36c96b26d7650eacb34930c9efb4888fcd",
		F1:               0.16666666666666669,
	},
	{
		Name:    "products-learn",
		Dataset: "products",
		Train:   dataSpec{Entities: 60, Positives: 21, Negatives: 28}, TrainSeed: 11,
		Classify:         dataSpec{Entities: 600, Positives: 140, Negatives: 280},
		Timed:            timeLearn,
		Setups:           51,
		DefinitionSHA256: "efea350a3f6cec22b115745864749da5c00b6b303f28030bac3924805d3356f1",
		F1:               0.25,
	},
	{
		Name:    "movies-classify",
		Dataset: "movies",
		Train:   dataSpec{Entities: 60, Positives: 21, Negatives: 36}, TrainSeed: 7,
		Classify:         dataSpec{Entities: 600, Positives: 80, Negatives: 220},
		Timed:            timeClassify,
		Setups:           1,
		DefinitionSHA256: "003e31aaf73b063b55cedab2fcd95eae65f124b81c286aed524722cf66d37c88",
		F1:               0.7368421052631579,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// generate builds one dataset of the workload's family.
func (w workload) generate(spec dataSpec, seed int64) (*datagen.Dataset, error) {
	switch w.Dataset {
	case "movies":
		cfg := datagen.DefaultMoviesConfig()
		cfg.Movies, cfg.Positives, cfg.Negatives, cfg.Seed = spec.Entities, spec.Positives, spec.Negatives, seed
		return datagen.Movies(cfg)
	case "products":
		cfg := datagen.DefaultProductsConfig()
		cfg.Products, cfg.Positives, cfg.Negatives, cfg.Seed = spec.Entities, spec.Positives, spec.Negatives, seed
		return datagen.Products(cfg)
	}
	return nil, fmt.Errorf("unknown dataset %q", w.Dataset)
}

// newEngine is the engine every workload uses: one coverage thread per CPU
// and k_m = 2; every other option stays at its default.
func newEngine() *dlearn.Engine {
	return dlearn.New(dlearn.WithThreads(runtime.NumCPU()), dlearn.WithTopMatches(2))
}

// fixture is a workload's set-up state.
type fixture struct {
	train     core.Problem // the learning problem (training split)
	heldOut   eval.Split   // its held-out examples, for F1
	classify  core.Problem // the classification instance
	tuples    []relation.Tuple
	learned   *logic.Definition // learned during set-up (classify workloads)
	learnTime time.Duration     // its wall time
	learnCPU  time.Duration     // and its CPU time
}

// setup generates the workload's inputs and, for a classify workload,
// learns the model it classifies with.
func (w workload) setup(ctx context.Context, eng *dlearn.Engine, seed int64) (*fixture, error) {
	ds, err := w.generate(w.Train, w.TrainSeed)
	if err != nil {
		return nil, fmt.Errorf("generate training data: %w", err)
	}
	split, err := eval.HoldOut(ds.Problem.Pos, ds.Problem.Neg, 1.0/3, w.TrainSeed)
	if err != nil {
		return nil, fmt.Errorf("hold out test examples: %w", err)
	}
	fx := &fixture{train: ds.Problem, heldOut: split}
	fx.train.Pos, fx.train.Neg = split.TrainPos, split.TrainNeg

	cds, err := w.generate(w.Classify, seed)
	if err != nil {
		return nil, fmt.Errorf("generate classification data: %w", err)
	}
	fx.classify = cds.Problem
	pos, neg := cds.Problem.Pos, cds.Problem.Neg
	if len(pos) != w.Classify.Positives || len(neg) != w.Classify.Negatives {
		return nil, fmt.Errorf("classification data has %d/%d labelled tuples, want %d/%d", len(pos), len(neg), w.Classify.Positives, w.Classify.Negatives)
	}
	fx.tuples = interleave(pos, neg)

	if w.Timed == timeClassify {
		runtime.GC()
		start, cpu := time.Now(), cpuTime(clockProcess)
		def, _, err := eng.Learn(ctx, &fx.train)
		fx.learnTime, fx.learnCPU = time.Since(start), cpuTime(clockProcess)-cpu
		if err != nil {
			return nil, fmt.Errorf("learn: %w", err)
		}
		fx.learned = def
	}
	return fx, nil
}

// interleave merges the two lists keeping their proportion in every
// prefix, so a time-budgeted pass over a prefix sees both classes.
func interleave(a, b []relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		// Take from a while its share of the output is not above its
		// share of the input.
		if j == len(b) || (i < len(a) && i*len(b) <= j*len(a)) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// model builds a classifier for def over the problem's instance, the way
// Engine.LearnModel does for the training instance.
func model(eng *dlearn.Engine, def *logic.Definition, p core.Problem) *core.Model {
	return core.NewModel(def, p, core.NewLearner(eng.Config()).Config())
}

// heldOutF1 is the F1 of def on the workload's held-out examples.
func (fx *fixture) heldOutF1(eng *dlearn.Engine, def *logic.Definition) (f1 float64, tuples int, err error) {
	m, err := eval.EvaluateSplit(model(eng, def, fx.train), fx.heldOut)
	if err != nil {
		return 0, 0, err
	}
	return m.F1(), len(fx.heldOut.TestPos) + len(fx.heldOut.TestNeg), nil
}

func definitionSHA256(def *logic.Definition) string {
	sum := sha256.Sum256([]byte(def.String()))
	return hex.EncodeToString(sum[:])
}
