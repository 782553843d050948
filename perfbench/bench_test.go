package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlearn/internal/relation"
)

// tiny shrinks a workload so a run takes about a second, and records the
// definition and held-out F1 it learns as the expected outputs.
func tiny(t *testing.T, w workload) workload {
	t.Helper()
	w.Train = dataSpec{Entities: 24, Positives: 9, Negatives: 12}
	w.Classify = dataSpec{Entities: 30, Positives: 3, Negatives: 5}
	w.Setups = 1
	eng := newEngine()
	fx, err := w.setup(context.Background(), eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	def, _, err := eng.Learn(context.Background(), &fx.train)
	if err != nil {
		t.Fatal(err)
	}
	w.DefinitionSHA256 = definitionSHA256(def)
	if w.F1, _, err = fx.heldOutF1(eng, def); err != nil {
		t.Fatal(err)
	}
	return w
}

// runTiny runs w and parses the result line, after checking that the
// environment header came first.
func runTiny(t *testing.T, w workload, trace bool) result {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: w.Name, seed: 1, seconds: 0.01, trace: trace, spans: filepath.Join(t.TempDir(), "spans.json")}
	if err := runWorkload(&out, w, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var header struct {
		Env map[string]any `json:"env"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	for _, k := range []string{"gomaxprocs", "num_cpu", "go_version", "git_rev", "seed"} {
		if _, ok := header.Env[k]; !ok {
			t.Errorf("environment header lacks %s: %s", k, lines[0])
		}
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	if trace {
		if _, err := os.Stat(o.spans); err != nil {
			t.Errorf("spans were not written: %v", err)
		}
	}
	return res
}

func checkMetrics(t *testing.T, res result, table []metric) {
	t.Helper()
	if len(res.Metrics) != len(table) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(table))
	}
	for _, m := range table {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", m.Name, v.Value)
		}
	}
}

func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			w := tiny(t, w)
			for _, trace := range []bool{false, true} {
				res := runTiny(t, w, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if trace {
					checkMetrics(t, res, perLayer)
				} else {
					checkMetrics(t, res, endToEnd)
				}
			}
		})
	}
}

func TestWrongDefinitionHashIsFailedOp(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			w := tiny(t, w)
			w.DefinitionSHA256 = strings.Repeat("0", 64)
			for _, trace := range []bool{false, true} {
				res := runTiny(t, w, trace)
				if res.Correct || res.Failed < 1 {
					t.Errorf("trace=%v: correct=%v failed=%d with a wrong recorded hash", trace, res.Correct, res.Failed)
				}
			}
		})
	}
}

func TestWrongF1IsFailure(t *testing.T) {
	w := tiny(t, workloads[0])
	w.F1 += 0.5
	if res := runTiny(t, w, false); res.Correct || res.Failed != 1 {
		t.Errorf("correct=%v failed=%d with a wrong recorded F1", res.Correct, res.Failed)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables of this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if _, err := findWorkload(spec.Workloads[i].Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		name       string
		json, code []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", c.name, len(c.json), len(c.code))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", c.name, i, c.json[i], c.code[i])
			}
		}
	}
}

func TestInterleave(t *testing.T) {
	tup := func(s string) relation.Tuple { return relation.NewTuple("r", s) }
	var got []string
	for _, e := range interleave([]relation.Tuple{tup("a0"), tup("a1")}, []relation.Tuple{tup("b0"), tup("b1"), tup("b2"), tup("b3")}) {
		got = append(got, e.Values[0])
	}
	if want := "a0 b0 b1 a1 b2 b3"; strings.Join(got, " ") != want {
		t.Errorf("interleave = %v, want %s", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "core.Learn", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "generalize.Generalize", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "coverage.CoversPositiveExample", Start: 15, End: 25},
		{ID: 4, Parent: 2, Name: "coverage.CoversPositiveExample", Start: 20, End: 30}, // overlaps 3
		{ID: 5, Parent: 2, Name: "coverage.CoversPositiveExample", Start: 55, End: 70}, // outlives 2
		{ID: 6, Parent: 1, Name: "coverage.ScoreCandidates", Start: 70, End: 90},
	}}
	want := []int64{100 - 50 - 20, 50 - 15 - 5, 10, 10, 15, 20}
	got := tr.selfTimes()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i+1, got[i], want[i])
		}
	}
	tot := tr.totals()
	if tot.rootSeconds != seconds(100) {
		t.Errorf("root seconds %v", tot.rootSeconds)
	}
	if got := tot.selfSeconds["generalize"]; got != seconds(30) {
		t.Errorf("generalize self %v", got)
	}
}
