// Package coverage implements DLearn's coverage semantics: whether a clause
// (possibly containing repair literals) covers a positive example under
// Definition 3.4 or a negative example under Definition 3.6, evaluated
// efficiently against prepared ground bottom clauses with the procedure of
// Section 4.3. Every coverage test, prediction included, probes a prepared
// Example with a compiled candidate (see probe.go). Batch scoring over many
// examples runs on a worker pool, which is the parallel coverage testing the
// paper's experiments enable with 16 threads.
package coverage

import (
	"context"
	"runtime"
	"sync/atomic"

	"dlearn/internal/logic"
	"dlearn/internal/repair"
	"dlearn/internal/subsumption"
)

// Options configures an Evaluator.
type Options struct {
	// Subsumption bounds each θ-subsumption search.
	Subsumption subsumption.Options
	// Repair bounds repaired-clause expansion.
	Repair repair.Options
	// Threads is the worker-pool size for batch scoring. Zero means
	// runtime.NumCPU().
	Threads int
	// CandidateParallelism is the outer-tier worker count of the candidate
	// scheduler: how many independent candidates ScoreCandidates keeps in
	// flight at once (each running its batch on the inner Threads pool).
	// Zero means DefaultCandidateParallelism.
	CandidateParallelism int
	// CacheShards is the number of lock stripes of the evaluator's probe
	// memo (rounded up to a power of two). Zero means DefaultCacheShards.
	CacheShards int
}

// Evaluator answers coverage questions. It is safe for concurrent use.
// The candidate side of every batch test — the compiled clause, its
// CFD-stripped projection and its repair-literal expansions — lives in one
// probe per clause, memoized in a lock-striped table keyed by the clause's
// canonical key, because the same candidate clauses are probed against
// hundreds of prepared examples during a learning run (and every classified
// tuple during prediction) and 16+ workers look them up at once.
type Evaluator struct {
	checker *subsumption.Checker
	repOpts repair.Options
	threads int
	candPar int

	// Plan telemetry: probes issued, probes the planner ordered, search
	// nodes explored and probes that exhausted their node budget,
	// accumulated across every probe-based coverage test.
	// The learner reads deltas around each candidate batch and reports them
	// on CandidateBatchScored events.
	planProbes    atomic.Int64
	planPlanned   atomic.Int64
	planNodes     atomic.Int64
	planExhausted atomic.Int64
	// planTruncated counts repaired-clause expansions that a repair cap
	// (or cancellation) cut short.
	planTruncated atomic.Int64

	probes *shardedCache[*probe]
}

// NewEvaluator builds an evaluator.
func NewEvaluator(opts Options) *Evaluator {
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.NumCPU()
	}
	candPar := opts.CandidateParallelism
	if candPar <= 0 {
		candPar = DefaultCandidateParallelism
	}
	return &Evaluator{
		checker: subsumption.New(opts.Subsumption),
		repOpts: opts.Repair,
		threads: threads,
		candPar: candPar,
		probes:  newShardedCache[*probe](opts.CacheShards),
	}
}

// probeFor returns the memoized probe of a clause, building it on first
// use. The batch paths (scoring, coverage bitmaps, negative counts,
// prediction) go through it, because their clauses recur across batches.
func (e *Evaluator) probeFor(c logic.Clause) *probe {
	return e.probes.getOrCompute(c.Key(), func() *probe { return e.newProbe(c) })
}

// expand returns the repaired clauses of c under opts, counting the
// expansion if a cap cut it.
func (e *Evaluator) expand(ctx context.Context, c logic.Clause, opts repair.Options) []logic.Clause {
	out, cut := repair.RepairedClausesContext(ctx, c, opts)
	if cut {
		e.planTruncated.Add(1)
	}
	return out
}

// clauseHasCFDRepairs reports whether any repair literal of the clause comes
// from a CFD.
func clauseHasCFDRepairs(c logic.Clause) bool {
	for _, l := range c.Body {
		if l.IsRepair() && l.Origin == logic.OriginCFD {
			return true
		}
	}
	return false
}

// stripCFDConnected returns the clause obtained by removing every CFD repair
// literal and every body literal connected to one (the clause C_md /
// G_md^e of Section 4.3), followed by the standard clean-up of dangling
// auxiliary literals.
func stripCFDConnected(c logic.Clause) logic.Clause {
	dropLit := make(map[int]bool)
	for i, l := range c.Body {
		if l.IsRepair() && l.Origin == logic.OriginCFD {
			dropLit[i] = true
		}
	}
	for i, reps := range c.RepairConnectivity() {
		for _, ri := range reps {
			if c.Body[ri].Origin == logic.OriginCFD {
				dropLit[i] = true
				break
			}
		}
	}
	out := logic.Clause{Head: c.Head.Clone()}
	for i, l := range c.Body {
		if dropLit[i] {
			continue
		}
		out.Body = append(out.Body, l.Clone())
	}
	return out.DropDanglingAuxiliaries()
}

// Score is the coverage statistics of a clause over a labelled example set.
type Score struct {
	PositivesCovered int
	NegativesCovered int
}

// Value is the search score used by the learner: positives minus negatives
// covered (Section 4.2).
func (s Score) Value() int { return s.PositivesCovered - s.NegativesCovered }
