// Command dlearn-bench runs the experiments that regenerate the tables and
// figures of "Learning Over Dirty Data Without Cleaning" (SIGMOD 2020) over
// the synthetic datasets shipped with this repository.
//
// Each experiment also emits a machine-readable timing summary —
// BENCH_<experiment>.json — aggregated from the learner's observer events
// (runs, iterations, clause decisions, per-phase seconds), so successive
// versions of the engine can be compared without parsing the tables.
// Interrupting the run (SIGINT/SIGTERM) cancels the in-flight experiment
// through the engine's context support.
//
// Usage:
//
//	dlearn-bench -exp table4            # one experiment at paper scale
//	dlearn-bench -exp all -quick        # every experiment, shrunk for a smoke run
//	dlearn-bench -exp table4 -json ""   # disable the JSON summary
//
// Experiments: table3, table4, table5, table6, table7, fig1left, fig1mid,
// fig1right, all. The repository's performance benchmark lives in perfbench/
// (see perfbench/README.md); the coverage hot path also has Go benchmarks
// (go test -bench . ./internal/coverage).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"dlearn/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: table3|table4|table5|table6|table7|fig1left|fig1mid|fig1right|all")
		quick   = flag.Bool("quick", false, "shrink datasets and sweeps for a fast smoke run")
		seed    = flag.Int64("seed", 1, "random seed for data generation and splits")
		threads = flag.Int("threads", 16, "parallel coverage-testing workers")
		folds   = flag.Int("folds", 0, "cross-validation folds (default: 5, or 2 with -quick)")
		jsonDir = flag.String("json", ".", "directory for BENCH_<exp>.json timing summaries (empty disables)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := bench.DefaultOptions()
	if *quick {
		opts = bench.QuickOptions()
	}
	opts.Seed = *seed
	opts.Threads = *threads
	if *folds > 0 {
		opts.Folds = *folds
	}
	opts.Out = os.Stdout

	// experiments lists every runner in the order -exp all runs them.
	experiments := []struct {
		name string
		run  func(context.Context, bench.Options) error
	}{
		{"table3", func(ctx context.Context, o bench.Options) error { _, err := bench.RunTable3(ctx, o); return err }},
		{"table4", func(ctx context.Context, o bench.Options) error { _, err := bench.RunTable4(ctx, o); return err }},
		{"table5", func(ctx context.Context, o bench.Options) error { _, err := bench.RunTable5(ctx, o); return err }},
		{"table6", func(ctx context.Context, o bench.Options) error { _, err := bench.RunTable6(ctx, o); return err }},
		{"table7", func(ctx context.Context, o bench.Options) error { _, err := bench.RunTable7(ctx, o); return err }},
		{"fig1left", func(ctx context.Context, o bench.Options) error { _, err := bench.RunFigure1Left(ctx, o); return err }},
		{"fig1mid", func(ctx context.Context, o bench.Options) error { _, err := bench.RunFigure1Middle(ctx, o); return err }},
		{"fig1right", func(ctx context.Context, o bench.Options) error { _, err := bench.RunFigure1Right(ctx, o); return err }},
	}

	// runOne executes one experiment with a fresh timing collector and, when
	// enabled, writes its BENCH_<name>.json summary next to the tables.
	runOne := func(name string, run func(context.Context, bench.Options) error) error {
		collector := bench.NewTimingCollector()
		o := opts
		o.Observer = collector
		if err := run(ctx, o); err != nil {
			return err
		}
		if *jsonDir == "" {
			return nil
		}
		path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
		if err := bench.WriteTimingJSON(path, collector.Summary(name)); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}

	selected := strings.ToLower(*exp)
	var runs []int
	for i, e := range experiments {
		if selected == "all" || e.name == selected {
			runs = append(runs, i)
		}
	}
	if len(runs) == 0 {
		fmt.Fprintf(os.Stderr, "dlearn-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	// Create the summary directory before any experiment runs, so a bad
	// -json path fails at once instead of after hours of paper-scale runs.
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dlearn-bench: -json: %v\n", err)
			os.Exit(1)
		}
	}
	for _, i := range runs {
		e := experiments[i]
		if err := runOne(e.name, e.run); err != nil {
			fmt.Fprintf(os.Stderr, "dlearn-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if selected == "all" {
			fmt.Println()
		}
	}
}
