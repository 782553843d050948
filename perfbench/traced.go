package main

import (
	"context"
	"fmt"
	"math"
	"time"
)

// runTraced sets up once, runs Engine.Learn untraced as the reference,
// replays it with spans, then classifies a prefix of the classification
// tuples for half the run's seconds with the replay and checks it against
// Model.PredictAll on the same prefix. The per-layer metrics come from the
// spans and from counts taken at the same boundaries.
func runTraced(ctx context.Context, w workload, o options, env map[string]any) (result, error) {
	eng := newEngine()
	var t tally
	fx, err := w.setup(ctx, eng, o.seed)
	if err != nil {
		return result{}, err
	}
	def, learnTime := fx.learned, fx.learnTime
	if def == nil {
		start := time.Now()
		def, _, err = eng.Learn(ctx, &fx.train)
		learnTime = time.Since(start)
		if err != nil {
			return result{}, fmt.Errorf("learn: %w", err)
		}
	}
	t.op(w.checkDefinition(def), "learned definition differs from the recorded one")

	tr := newTracer()
	replayed, n, err := replayLearn(ctx, tr, fx.train, eng.Config())
	if err != nil {
		return result{}, fmt.Errorf("replay learn: %w", err)
	}
	t.op(replayed.String() == def.String(), "replayed definition differs from Engine.Learn:\n%s\nvs\n%s", replayed, def)

	// Classify until half the run's seconds are spent, then check the
	// replayed prefix against Model.PredictAll.
	deadline := time.Now().Add(time.Duration(o.seconds / 2 * float64(time.Second)))
	got, err := replayPredictAll(ctx, tr, def, fx.classify, eng.Config(), fx.tuples, deadline)
	if err != nil {
		return result{}, fmt.Errorf("replay classification: %w", err)
	}
	want, err := model(eng, def, fx.classify).PredictAll(fx.tuples[:len(got)])
	if err != nil {
		return result{}, fmt.Errorf("classify: %w", err)
	}
	for i := range got {
		t.op(got[i] == want[i], "replayed classification of %s is %v, Model.PredictAll says %v", fx.tuples[i], got[i], want[i])
	}

	tot := tr.totals()
	var selfSum float64
	for _, s := range tot.selfSeconds {
		selfSum += s
	}
	if math.Abs(selfSum-tot.rootSeconds) > 1e-6 {
		t.fail("layer self times add up to %v s, the root spans to %v s", selfSum, tot.rootSeconds)
	}
	if err := tr.write(o.spans, env); err != nil {
		return result{}, err
	}

	sec := func(name string) float64 { return tot.seconds[name] }
	calls := func(name string) float64 { return float64(tot.calls[name]) }
	return t.result(map[string]value{
		"bottomclause.ground_s":            {sec(spanGround), "s"},
		"bottomclause.ground_calls":        {calls(spanGround), "count"},
		"bottomclause.bottom_s":            {sec(spanBottom), "s"},
		"bottomclause.bottom_calls":        {calls(spanBottom), "count"},
		"bottomclause.self_s":              {tot.selfSeconds["bottomclause"], "s"},
		"coverage.prepare_s":               {sec(spanPrepare), "s"},
		"coverage.prepare_examples":        {float64(n.prepareExamples), "count"},
		"generalize.scan_s":                {sec(spanGeneralize), "s"},
		"generalize.calls":                 {calls(spanGeneralize), "count"},
		"generalize.yield":                 {ratio(float64(n.candidates), calls(spanGeneralize)), "cands/call"},
		"generalize.probes":                {float64(n.generalize.probes), "count"},
		"generalize.nodes":                 {float64(n.generalize.nodes), "count"},
		"generalize.self_s":                {tot.selfSeconds["generalize"], "s"},
		"coverage.score_s":                 {sec(spanScore), "s"},
		"coverage.score_candidates":        {float64(n.candidates), "count"},
		"coverage.score_probes":            {float64(n.score.probes), "count"},
		"coverage.score_nodes":             {float64(n.score.nodes), "count"},
		"coverage.early_exit_ratio":        {ratio(float64(n.earlyExited), float64(n.candidates)), "ratio"},
		"coverage.accept_s":                {sec(spanCoverageBits) + sec(spanCountNegatives), "s"},
		"coverage.accept_probes":           {float64(n.accept.probes), "count"},
		"coverage.accept_nodes":            {float64(n.accept.nodes), "count"},
		"coverage.definition_covers_s":     {sec(spanDefCovers), "s"},
		"coverage.definition_covers_calls": {calls(spanDefCovers), "count"},
		"coverage.self_s":                  {tot.selfSeconds["coverage"], "s"},
		"subsumption.probes":               {float64(n.all.probes), "count"},
		"subsumption.nodes":                {float64(n.all.nodes), "count"},
		"subsumption.nodes_per_probe":      {ratio(float64(n.all.nodes), float64(n.all.probes)), "nodes/probe"},
		"subsumption.planned_ratio":        {ratio(float64(n.all.planned), float64(n.all.probes)), "ratio"},
		"core.iterations":                  {float64(n.iterations), "count"},
		"core.hill_steps":                  {float64(n.hillSteps), "count"},
		"core.accept_ratio":                {ratio(float64(n.accepted), float64(n.iterations)), "ratio"},
		"core.self_s":                      {tot.selfSeconds["core"], "s"},
		"trace.total_s":                    {tot.rootSeconds, "s"},
		"trace.overhead_s":                 {sec(spanLearn) - learnTime.Seconds(), "s"},
	}), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
