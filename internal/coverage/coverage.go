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
	// CacheShards is the number of lock stripes per memo table (rounded up
	// to a power of two). Zero means DefaultCacheShards.
	CacheShards int
}

// Evaluator answers coverage questions. It is safe for concurrent use.
// The candidate side of every test — compiled clauses, their repair-literal
// expansions and CFD-stripped projections — is memoized in lock-striped
// caches (keyed by the clause's canonical key), because the same candidate
// clauses are probed against hundreds of prepared examples during a learning
// run (and every classified tuple during prediction) and 16+ workers probe
// the caches at once.
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

	repCache   *shardedCache[[]logic.Clause]
	cfdCache   *shardedCache[[]logic.Clause]
	stripCache *shardedCache[logic.Clause]
	candCache  *shardedCache[*subsumption.CompiledCandidate]
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
		checker:    subsumption.New(opts.Subsumption),
		repOpts:    opts.Repair,
		threads:    threads,
		candPar:    candPar,
		repCache:   newShardedCache[[]logic.Clause](opts.CacheShards),
		cfdCache:   newShardedCache[[]logic.Clause](opts.CacheShards),
		stripCache: newShardedCache[logic.Clause](opts.CacheShards),
		candCache:  newShardedCache[*subsumption.CompiledCandidate](opts.CacheShards),
	}
}

// candidateCached returns the compiled (subsuming-side) form of a clause,
// compiling it on first use. Compiled candidates are immutable and shared by
// all workers probing prepared examples.
func (e *Evaluator) candidateCached(c logic.Clause) *subsumption.CompiledCandidate {
	return e.candCache.getOrCompute(c.Key(), func() *subsumption.CompiledCandidate {
		return subsumption.CompileCandidate(c)
	})
}

// expandCFD applies only the CFD repair groups of a clause, leaving MD
// repair literals in place. Results are memoized; an expansion truncated by
// cancellation is returned but never cached.
func (e *Evaluator) expandCFD(ctx context.Context, c logic.Clause) []logic.Clause {
	key := c.Key()
	if cached, ok := e.cfdCache.get(key); ok {
		return cached
	}
	opts := e.repOpts
	opts.Origin = logic.OriginCFD
	out := repair.RepairedClausesContext(ctx, c, opts)
	if ctx.Err() != nil {
		return out
	}
	e.cfdCache.set(key, out)
	return out
}

// repairedCached memoizes full repaired-clause expansion. An expansion
// truncated by cancellation is returned but never cached.
func (e *Evaluator) repairedCached(ctx context.Context, c logic.Clause) []logic.Clause {
	key := c.Key()
	if cached, ok := e.repCache.get(key); ok {
		return cached
	}
	out := repair.RepairedClausesContext(ctx, c, e.repOpts)
	if ctx.Err() != nil {
		return out
	}
	e.repCache.set(key, out)
	return out
}

// stripCached memoizes StripCFDConnected.
func (e *Evaluator) stripCached(c logic.Clause) logic.Clause {
	return e.stripCache.getOrCompute(c.Key(), func() logic.Clause {
		return StripCFDConnected(c)
	})
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

// StripCFDConnected returns the clause obtained by removing every CFD repair
// literal and every body literal connected to one (the clause C_md /
// G_md^e of Section 4.3), followed by the standard clean-up of dangling
// auxiliary literals.
func StripCFDConnected(c logic.Clause) logic.Clause {
	dropLit := make(map[int]bool)
	for i, l := range c.Body {
		if l.IsRepair() && l.Origin == logic.OriginCFD {
			dropLit[i] = true
		}
	}
	for i, l := range c.Body {
		if !l.IsRelation() {
			continue
		}
		for _, ri := range c.ConnectedRepairLiterals(i) {
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
