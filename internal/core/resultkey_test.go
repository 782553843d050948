package core

import "testing"

// TestResultKeyNormalizesConfig pins the property the serving layer's result
// cache depends on: a raw config and the normalized copy the learner actually
// runs must hash to the same key, because the server fingerprints the config
// it assembled while the engine runs NewLearner's defaulted version.
func TestResultKeyNormalizesConfig(t *testing.T) {
	p := smallMovieProblem()
	raw := Config{Seed: 7, MaxClauses: 3} // everything else left to defaulting
	if got, want := ResultKey(p, raw), ResultKey(p, NewLearner(raw).Config()); got != want {
		t.Errorf("raw config key %s != learner-normalized config key %s", got, want)
	}
}

// TestResultKeyCoversDefinitionAffectingOptions verifies the key changes with
// every option that can change the learned definition, and only with those:
// parallelism knobs are excluded because the candidate scheduler pins
// definitions byte-identical across thread counts.
func TestResultKeyCoversDefinitionAffectingOptions(t *testing.T) {
	p := smallMovieProblem()
	base := fastConfig()
	baseKey := ResultKey(p, base)

	mutations := map[string]func(*Config){
		"seed":                   func(c *Config) { c.Seed += 100 },
		"generalization sample":  func(c *Config) { c.GeneralizationSample++ },
		"negative search sample": func(c *Config) { c.NegativeSearchSample = 99 },
		"min positive coverage":  func(c *Config) { c.MinPositiveCoverage++ },
		"max clauses":            func(c *Config) { c.MaxClauses++ },
		"top matches":            func(c *Config) { c.BottomClause.KM++ },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if ResultKey(p, cfg) == baseKey {
			t.Errorf("changing %s did not change the result key", name)
		}
	}

	threads := base
	threads.Threads = base.Threads + 6
	if ResultKey(p, threads) != baseKey {
		t.Error("changing Threads changed the result key; definitions are thread-count invariant")
	}
}

// TestResultKeyDiffersByProblem guards against a degenerate fingerprint that
// ignores its inputs.
func TestResultKeyDiffersByProblem(t *testing.T) {
	p := smallMovieProblem()
	q := smallMovieProblem()
	q.Pos = q.Pos[:len(q.Pos)-1]
	if ResultKey(p, fastConfig()) == ResultKey(q, fastConfig()) {
		t.Error("problems with different examples share a result key")
	}
}
