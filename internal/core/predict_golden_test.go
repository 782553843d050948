package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"sync"
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/core"
	"dlearn/internal/coverage"
	"dlearn/internal/datagen"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// predictCase is one generated problem whose classification is pinned: a
// definition learned on a training instance, then Model.PredictAll over the
// labelled tuples of a second instance generated with another seed. Both
// instances carry CFD violations and the learner keeps CFD repair literals,
// so predictions run the full Section 4.3 procedure (direct probe, MD-only
// projection, CFD expansion) and not only the direct θ-subsumption probe.
type predictCase struct {
	name string
	// generate builds the instance for a seed.
	generate func(seed int64) (*datagen.Dataset, error)
	// trainSeed and classifySeed pick the two instances.
	trainSeed, classifySeed int64
	// definitionSHA is the SHA-256 of the learned Definition.String().
	definitionSHA string
	// predictions is PredictAll's output over the classification
	// instance's positives then negatives, one '1' or '0' per tuple.
	predictions string
}

var predictCases = []predictCase{
	{
		name: "movies",
		generate: func(seed int64) (*datagen.Dataset, error) {
			cfg := datagen.DefaultMoviesConfig()
			cfg.Movies, cfg.Positives, cfg.Negatives = 60, 20, 36
			cfg.ViolationRate, cfg.Seed = 0.2, seed
			return datagen.Movies(cfg)
		},
		trainSeed:     7,
		classifySeed:  8,
		definitionSHA: "022efc34497961888ded8d3841c4703ad110742f1326ac9f3321adffa7accff5",
		predictions:   "1000101001000100000000000110000000000000000000010000",
	},
	{
		name: "products",
		generate: func(seed int64) (*datagen.Dataset, error) {
			cfg := datagen.DefaultProductsConfig()
			cfg.Products, cfg.Positives, cfg.Negatives = 40, 16, 24
			cfg.ViolationRate, cfg.Seed = 0.2, seed
			return datagen.Products(cfg)
		},
		trainSeed:     11,
		classifySeed:  12,
		definitionSHA: "e4eb51d8de7bc1ade71e1c0a21376c3a7b8c967be64bcdd69b8a1884f755bbbf",
		predictions:   "00001000000001000000000000000000",
	},
}

// predictConfig is the learner configuration of the prediction goldens:
// defaults (CFDs on) with two coverage threads and k_m = 2.
func predictConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Threads = 2
	cfg.BottomClause.KM = 2
	return cfg
}

// predictFixture is a case's learned definition with the classification
// problem and its tuples (positives, then negatives).
type predictFixture struct {
	def    *logic.Definition
	cls    core.Problem
	tuples []relation.Tuple
	cfg    core.Config
	err    error
}

var predictFixtures = map[string]*predictFixture{}

// learnForPrediction learns the case's definition once per test binary and
// shares it between the tests that classify with it.
func learnForPrediction(t *testing.T, pc predictCase) *predictFixture {
	t.Helper()
	fx, ok := predictFixtures[pc.name]
	if !ok {
		fx = newPredictFixture(pc)
		predictFixtures[pc.name] = fx
	}
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return fx
}

func newPredictFixture(pc predictCase) *predictFixture {
	train, err := pc.generate(pc.trainSeed)
	if err != nil {
		return &predictFixture{err: err}
	}
	learner := core.NewLearner(predictConfig())
	def, _, err := learner.LearnContext(context.Background(), train.Problem)
	if err != nil {
		return &predictFixture{err: err}
	}
	cls, err := pc.generate(pc.classifySeed)
	if err != nil {
		return &predictFixture{err: err}
	}
	tuples := append(append([]relation.Tuple{}, cls.Problem.Pos...), cls.Problem.Neg...)
	return &predictFixture{def: def, cls: cls.Problem, tuples: tuples, cfg: learner.Config()}
}

// TestPredictAllGolden pins the learned definitions and every prediction of
// Model.PredictAll on the generated movies and products problems to the
// values recorded before prediction moved onto prepared probes.
func TestPredictAllGolden(t *testing.T) {
	for _, pc := range predictCases {
		t.Run(pc.name, func(t *testing.T) {
			fx := learnForPrediction(t, pc)
			sum := sha256.Sum256([]byte(fx.def.String()))
			if got := hex.EncodeToString(sum[:]); got != pc.definitionSHA {
				t.Errorf("definition SHA-256 = %s, want %s\n%s", got, pc.definitionSHA, fx.def)
			}
			preds, err := core.NewModel(fx.def, fx.cls, fx.cfg).PredictAll(fx.tuples)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, p := range preds {
				if p {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
			if got := b.String(); got != pc.predictions {
				t.Errorf("predictions = %q, want %q", got, pc.predictions)
			}
		})
	}
}

// TestPredictAllConcurrent runs PredictAll from four goroutines on one fresh
// Model (so the lazily built similarity indexes and the evaluator caches are
// first filled concurrently) and checks each answer against a serial run on
// a separate Model. Run with -race.
func TestPredictAllConcurrent(t *testing.T) {
	for _, pc := range predictCases {
		t.Run(pc.name, func(t *testing.T) {
			fx := learnForPrediction(t, pc)
			want, err := core.NewModel(fx.def, fx.cls, fx.cfg).PredictAll(fx.tuples)
			if err != nil {
				t.Fatal(err)
			}
			m := core.NewModel(fx.def, fx.cls, fx.cfg)
			got := make([][]bool, 4)
			errs := make([]error, len(got))
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = m.PredictAll(fx.tuples)
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatalf("goroutine %d: %v", i, errs[i])
				}
				if !slices.Equal(got[i], want) {
					t.Errorf("goroutine %d predictions differ from the serial run", i)
				}
			}
		})
	}
}

// TestDefinitionCoversMatchesPreparedExample checks, for every tuple of the
// golden problems, that DefinitionCoversContext on the ground bottom clause
// (CFD side prepared lazily) agrees with DefinitionCoversExample over an eagerly prepared
// Example, and that the ground clauses do exercise CFD repair literals.
func TestDefinitionCoversMatchesPreparedExample(t *testing.T) {
	ctx := context.Background()
	for _, pc := range predictCases {
		t.Run(pc.name, func(t *testing.T) {
			fx := learnForPrediction(t, pc)
			cls, cfg := fx.cls, fx.cfg
			builder := bottomclause.NewBuilder(cls.Instance, cls.Target, cls.MDs, cls.CFDs, cfg.BottomClause)
			opts := coverage.Options{Subsumption: cfg.Subsumption, Repair: cfg.Repair, Threads: cfg.Threads}
			lazy, eager := coverage.NewEvaluator(opts), coverage.NewEvaluator(opts)
			withCFD, covered := 0, 0
			for _, tu := range fx.tuples {
				g, err := builder.GroundBottomClause(tu)
				if err != nil {
					t.Fatal(err)
				}
				if hasCFDRepair(g) {
					withCFD++
				}
				got := lazy.DefinitionCoversContext(ctx, fx.def, g)
				want := eager.DefinitionCoversExample(ctx, fx.def, eager.NewExample(ctx, g))
				if got != want {
					t.Errorf("tuple %v: DefinitionCoversContext = %v, prepared example = %v", tu, got, want)
				}
				if got {
					covered++
				}
			}
			if withCFD == 0 {
				t.Error("no ground bottom clause carries a CFD repair literal; the CFD leg is untested")
			}
			t.Logf("%d tuples, %d with CFD repair literals, %d covered", len(fx.tuples), withCFD, covered)
		})
	}
}

func hasCFDRepair(c logic.Clause) bool {
	for _, l := range c.Body {
		if l.IsRepair() && l.Origin == logic.OriginCFD {
			return true
		}
	}
	return false
}
