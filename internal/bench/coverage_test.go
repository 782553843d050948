package bench

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestCoverageSummaryRoundTrip checks the BENCH_coverage.json schema: a
// summary written by WriteCoverageJSON must unmarshal back to an identical
// value, so downstream tooling can rely on the field set.
func TestCoverageSummaryRoundTrip(t *testing.T) {
	want := CoverageSummary{
		Experiment:          "coverage",
		Seed:                7,
		Threads:             16,
		CacheShards:         16,
		Candidates:          8,
		Positives:           40,
		Negatives:           60,
		Rounds:              3,
		PrepareSeconds:      0.25,
		SnapshotHit:         true,
		LoadSeconds:         0.02,
		SnapshotBytes:       123456,
		WarmSpeedup:         12.5,
		FullScoreSeconds:    1.5,
		CoverTestsPerSecond: 1600,
		BatchScoreSeconds:   0.9,
		BatchEarlyExits:     5,
		BatchSpeedup:        1.67,

		CandidateParallelism:     4,
		CandidatePoolPositives:   8,
		CandidatePoolNegatives:   8,
		CandidateSerialSeconds:   0.8,
		CandidateParallelSeconds: 0.3,
		CandidateParallelSpeedup: 2.67,
		CandidateEarlyExits:      9,

		SnapshotStoreBytes:   123456,
		SnapshotStoreFiles:   1,
		SnapshotMaxBytes:     1 << 30,
		SnapshotSweepRemoved: 2,

		LearnProbes:      512,
		LearnSearchNodes: 20000,
	}
	path := filepath.Join(t.TempDir(), "BENCH_coverage.json")
	if err := WriteCoverageJSON(path, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got CoverageSummary
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// The schema keys are part of the trajectory contract; a rename would
	// silently break comparisons across PRs.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"experiment", "seed", "threads", "cache_shards",
		"candidates", "positives", "negatives", "rounds",
		"prepare_seconds", "snapshot_hit", "load_seconds", "snapshot_bytes",
		"warm_speedup", "full_score_seconds", "cover_tests_per_second",
		"batch_score_seconds", "batch_early_exits", "batch_speedup",
		"candidate_parallelism", "candidate_pool_positives", "candidate_pool_negatives",
		"candidate_serial_seconds", "candidate_parallel_seconds",
		"candidate_parallel_speedup", "candidate_early_exits",
		"snapshot_store_bytes", "snapshot_store_files",
		"snapshot_max_bytes", "snapshot_sweep_removed",
		"learn_probes", "learn_search_nodes",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCH_coverage.json is missing key %q", key)
		}
	}
}

// TestRunCoverageQuick smoke-tests the micro-benchmark at quick scale.
func TestRunCoverageQuick(t *testing.T) {
	o := QuickOptions()
	o.Out = io.Discard
	s, err := RunCoverage(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if s.Experiment != "coverage" {
		t.Errorf("experiment = %q", s.Experiment)
	}
	if s.Candidates <= 0 || s.Positives <= 0 || s.Negatives <= 0 {
		t.Errorf("empty workload: %+v", s)
	}
	if s.FullScoreSeconds <= 0 || s.CoverTestsPerSecond <= 0 {
		t.Errorf("missing timings: %+v", s)
	}
	if !s.SnapshotHit {
		t.Error("warm-start load did not hit the snapshot store")
	}
	if s.LoadSeconds <= 0 || s.SnapshotBytes <= 0 || s.WarmSpeedup <= 0 {
		t.Errorf("missing snapshot measurements: %+v", s)
	}
	if s.CandidateParallelism <= 0 || s.CandidateSerialSeconds <= 0 || s.CandidateParallelSeconds <= 0 {
		t.Errorf("missing candidate-tier measurements: %+v", s)
	}
	if s.CandidatePoolPositives <= 0 || s.CandidatePoolPositives > 8 ||
		s.CandidatePoolNegatives <= 0 || s.CandidatePoolNegatives > 8 {
		t.Errorf("candidate tier did not run on the small example pool: %+v", s)
	}
	if s.SnapshotStoreBytes <= 0 || s.SnapshotStoreFiles != 1 {
		t.Errorf("missing store occupancy: %+v", s)
	}
	if s.LearnProbes <= 0 || s.LearnSearchNodes <= 0 {
		t.Errorf("missing learner-pass probe measurements: %+v", s)
	}
}

// TestRunCoverageSnapshotCap checks the -snapshot-max-bytes plumbing: a cap
// triggers the LRU sweep and the post-sweep occupancy honours it (the
// snapshot just written is always kept).
func TestRunCoverageSnapshotCap(t *testing.T) {
	dir := t.TempDir()
	// A pre-existing stale snapshot that the sweep must reclaim.
	stale := filepath.Join(dir, "0000000000000000000000000000000000000000000000000000000000000000.dlsnap")
	if err := os.WriteFile(stale, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	o := QuickOptions()
	o.Out = io.Discard
	o.SnapshotDir = dir
	o.SnapshotMaxBytes = 8192 // smaller than stale + fresh snapshots
	s, err := RunCoverage(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if s.SnapshotMaxBytes != 8192 {
		t.Errorf("cap not recorded: %+v", s)
	}
	if s.SnapshotSweepRemoved < 1 {
		t.Errorf("sweep removed %d snapshots, want at least the stale one", s.SnapshotSweepRemoved)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale snapshot survived the sweep: %v", err)
	}
	if s.SnapshotStoreFiles != 1 {
		t.Errorf("store holds %d files after sweep, want 1 (the fresh snapshot)", s.SnapshotStoreFiles)
	}
}

// TestRunCoverageSnapshotDir checks that a caller-provided snapshot dir is
// used and populated.
func TestRunCoverageSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	o := QuickOptions()
	o.Out = io.Discard
	o.SnapshotDir = dir
	s, err := RunCoverage(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !s.SnapshotHit {
		t.Error("warm-start load did not hit the snapshot store")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir has %d entries, want 1", len(entries))
	}
}

// TestRunCoverageCancelled checks that a cancelled context aborts the run.
func TestRunCoverageCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := QuickOptions()
	o.Out = io.Discard
	if _, err := RunCoverage(ctx, o); err == nil {
		t.Fatal("cancelled RunCoverage should return an error")
	}
}
