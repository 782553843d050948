// Command perfbench is the repository benchmark. It runs one named
// workload of DLearn in a single process and prints every metric by name,
// with its unit and the direction in which it gets worse, ending with one
// JSON result line.
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it replays the covering loop and the classifier from the
// layers' public functions, records a span around each call, checks that
// the replay reproduces Engine.Learn and Model.PredictAll exactly, and
// reports the per-layer metrics; the spans are written to --spans.
//
//	bash perfbench/run.sh --workload movies-learn --seed 1 --seconds 35 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"dlearn/internal/core"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
)

// metric describes one reported number.
type metric struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the library sees, reported with
// tracing off. Their times are CPU times (see cpuTime).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"learn_cpu_s", "s", "lower"},
	{"classify_per_cpu_s", "1/s", "higher"},
	{"classify_cpu_p50_ms", "ms", "lower"},
	{"classify_cpu_p95_ms", "ms", "lower"},
	{"f1", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = []metric{
	{"bottomclause.ground_s", "s", "lower"},
	{"bottomclause.ground_calls", "count", "lower"},
	{"bottomclause.bottom_s", "s", "lower"},
	{"bottomclause.bottom_calls", "count", "lower"},
	{"bottomclause.self_s", "s", "lower"},
	{"coverage.prepare_s", "s", "lower"},
	{"coverage.prepare_examples", "count", "lower"},
	{"generalize.scan_s", "s", "lower"},
	{"generalize.calls", "count", "lower"},
	{"generalize.yield", "cands/call", "higher"},
	{"generalize.probes", "count", "lower"},
	{"generalize.nodes", "count", "lower"},
	{"generalize.self_s", "s", "lower"},
	{"coverage.score_s", "s", "lower"},
	{"coverage.score_candidates", "count", "lower"},
	{"coverage.score_probes", "count", "lower"},
	{"coverage.score_nodes", "count", "lower"},
	{"coverage.early_exit_ratio", "ratio", "higher"},
	{"coverage.accept_s", "s", "lower"},
	{"coverage.accept_probes", "count", "lower"},
	{"coverage.accept_nodes", "count", "lower"},
	{"coverage.definition_covers_s", "s", "lower"},
	{"coverage.definition_covers_calls", "count", "lower"},
	{"coverage.self_s", "s", "lower"},
	{"subsumption.probes", "count", "lower"},
	{"subsumption.nodes", "count", "lower"},
	{"subsumption.nodes_per_probe", "nodes/probe", "lower"},
	{"subsumption.planned_ratio", "ratio", "higher"},
	{"core.iterations", "count", "lower"},
	{"core.hill_steps", "count", "lower"},
	{"core.accept_ratio", "ratio", "higher"},
	{"core.self_s", "s", "lower"},
	{"trace.total_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated classification inputs")
	flag.Float64Var(&o.seconds, "seconds", 35, "how long the measured loop runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "where the traced run writes its spans (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", o.workload, o.seed)
	}
	w, err := findWorkload(o.workload)
	if err == nil {
		err = runWorkload(os.Stdout, w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runWorkload executes one benchmark run and writes its report to out.
func runWorkload(out io.Writer, w workload, o options) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := environment(w, o)
	header, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(header))

	ctx := context.Background()
	var res result
	var table []metric
	if o.trace {
		res, err = runTraced(ctx, w, o, env)
		table = perLayer
	} else {
		res, err = runUntraced(ctx, w, o)
		table = endToEnd
	}
	if err != nil {
		return err
	}
	for _, m := range table {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		fmt.Fprintf(out, "%-34s %14.6f %-12s worse when %s\n", m.Name, v.Value, m.Unit, worse(m.Better))
	}
	fmt.Fprintf(out, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

func worse(better string) string {
	if better == "lower" {
		return "higher"
	}
	return "lower"
}

// environment is the header printed before every result.
func environment(w workload, o options) map[string]any {
	rev := os.Getenv("PERFBENCH_GIT_REV")
	if rev == "" {
		rev = "unknown"
	}
	return map[string]any{
		"workload":   w.Name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"git_rev":    rev,
	}
}

// tally counts operations and failures; a failure is an error or an output
// that differs from the recorded or reference one.
type tally struct {
	attempted, failed int
}

// op counts one operation, failed unless ok.
func (t *tally) op(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

// fail counts a failure of an operation already counted.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
}

func (t *tally) result(metrics map[string]value) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// runUntraced measures the end-to-end metrics: set-up Setups times, then
// the workload's measured loop for the given seconds, then the held-out F1.
// learn_cpu_s is the median of the run's learns, and a tuple's
// classification time the median of its passes.
func runUntraced(ctx context.Context, w workload, o options) (result, error) {
	eng := newEngine()
	var t tally
	var setups, learns []float64
	// setUp sets the workload up once, timed from a collected heap.
	setUp := func() (*fixture, error) {
		runtime.GC()
		start := cpuTime(clockProcess)
		f, err := w.setup(ctx, eng, o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime(clockProcess) - start).Seconds())
		if f.learned != nil {
			learns = append(learns, f.learnCPU.Seconds())
			t.op(w.checkDefinition(f.learned), "definition learned in set-up differs from the recorded one")
		}
		return f, nil
	}
	var fx *fixture
	for i := 0; i < w.Setups; i++ {
		f, err := setUp()
		if err != nil {
			return result{}, err
		}
		fx = f
	}
	def := fx.learned

	// A cycle is one cold learn (learn workloads) or one more set-up, which
	// learns (classify workloads), followed by one classification pass, so
	// the learn samples are spread over the run like the passes. Another
	// cycle starts only if one more of median length still ends within the
	// run's seconds.
	var c *classifier
	var cycles []float64
	end := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(cycles) == 0 || time.Now().Add(time.Duration(median(cycles)*float64(time.Second))).Before(end) {
		start := time.Now()
		switch w.Timed {
		case timeLearn:
			// Collect the previous cycle's garbage outside the timing, so
			// every learn starts from the same heap.
			runtime.GC()
			lstart := cpuTime(clockProcess)
			d, _, err := eng.Learn(ctx, &fx.train)
			learns = append(learns, (cpuTime(clockProcess) - lstart).Seconds())
			if err != nil {
				t.op(false, "learn: %v", err)
			} else {
				t.op(w.checkDefinition(d), "learned definition differs from the recorded one")
				if def == nil {
					def = d
				}
			}
		case timeClassify:
			if _, err := setUp(); err != nil {
				return result{}, err
			}
		}
		if def != nil {
			if c == nil {
				c = newClassifier(model(eng, def, fx.classify), fx.tuples)
			}
			c.pass(&t)
		}
		cycles = append(cycles, time.Since(start).Seconds())
	}
	if def == nil {
		return result{}, fmt.Errorf("no learn succeeded")
	}

	f1, n, err := fx.heldOutF1(eng, def)
	t.attempted += n
	if err != nil {
		return result{}, fmt.Errorf("held-out F1: %w", err)
	}
	if f1 != w.F1 {
		t.fail("held-out F1 %v differs from the recorded %v", f1, w.F1)
	}

	fmt.Fprintf(os.Stderr, "perfbench: setup_s samples %.4f, learn_cpu_s samples %.4f, %d classification passes\n", setups, learns, c.passes)
	lat := c.latencies()
	var busy float64
	for _, l := range lat {
		busy += l
	}
	return t.result(map[string]value{
		"setup_s":             {median(setups), "s"},
		"learn_cpu_s":         {median(learns), "s"},
		"classify_per_cpu_s":  {float64(len(lat)) / busy, "1/s"},
		"classify_cpu_p50_ms": {quantile(lat, 0.50) * 1e3, "ms"},
		"classify_cpu_p95_ms": {quantile(lat, 0.95) * 1e3, "ms"},
		"f1":                  {f1, "ratio"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
	}), nil
}

// classifier times whole passes of a model over the classification
// tuples, each tuple classified once per pass in the same order.
type classifier struct {
	m       *core.Model
	tuples  []relation.Tuple
	samples [][]float64 // per tuple, its latency in each pass, in seconds
	passes  int
}

func newClassifier(m *core.Model, tuples []relation.Tuple) *classifier {
	return &classifier{m: m, tuples: tuples, samples: make([][]float64, len(tuples))}
}

// pass classifies every tuple once, after collecting garbage outside the
// timing. Model.Predict runs on the calling goroutine alone, so the CPU
// time of its locked thread is the classification's whole CPU time, bar
// the garbage collector's background work.
func (c *classifier) pass(t *tally) {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, e := range c.tuples {
		start := cpuTime(clockThread)
		_, err := c.m.Predict(e)
		c.samples[i] = append(c.samples[i], (cpuTime(clockThread) - start).Seconds())
		t.op(err == nil, "classify %s: %v", e, err)
	}
	c.passes++
}

// latencies are the tuples' classification CPU times, each the median of
// its passes.
func (c *classifier) latencies() []float64 {
	out := make([]float64, len(c.samples))
	for i, s := range c.samples {
		out[i] = median(s)
	}
	return out
}

// checkDefinition reports whether def is the workload's recorded one.
func (w workload) checkDefinition(def *logic.Definition) bool {
	got := definitionSHA256(def)
	if got != w.DefinitionSHA256 {
		fmt.Fprintf(os.Stderr, "perfbench: %s learned definition sha256 %s, recorded %s:\n%s\n", w.Name, got, w.DefinitionSHA256, def)
		return false
	}
	return true
}

// median and quantile use linear interpolation between order statistics.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Clocks for cpuTime (clock_gettime clock IDs on Linux).
const (
	clockProcess = 2 // CLOCK_PROCESS_CPUTIME_ID: all threads of the process
	clockThread  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuTime reads a CPU-time clock. The benchmark times in CPU time, not
// wall time: on a shared host the hypervisor gives the vCPUs to other
// tenants for a varying share of the time (steal, a third of it at busy
// times on a 2-vCPU VM), which slows wall time but is not CPU time of
// this process.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", clock, errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
