// Package server implements dlearn-serve: a long-lived, multi-tenant HTTP
// service in front of the Engine. Clients POST a complete learning problem
// (relations, tuples, MDs/CFDs, examples, budgets) to /v1/jobs and get a job
// ID back; the job runs through a bounded queue with admission control and a
// per-job deadline, streams its Observer events as server-sent events from
// /v1/jobs/{id}/events (terminating with the learned definition), and can be
// cancelled mid-search with DELETE. All jobs share one content-addressed
// snapshot store, so identical preparations dedupe across tenants — the
// second tenant to submit a problem over the same database warm-starts off
// the first tenant's preparation.
//
// Two further layers extend the dedup from preparations to whole runs. A job
// journal (Config.JobDir) makes accepted jobs durable: every admitted job
// and its terminal outcome is persisted, and a restarted server re-enqueues
// interrupted jobs and restores finished ones — status, result, event replay
// and stats outcomes all survive. A result cache keys completed results by
// the result fingerprint (the snapshot fingerprint extended with every
// definition-affecting option), so a resubmitted bit-identical job completes
// instantly with the cached definition.
//
// The server adds no learning semantics of its own: a job's definition is
// byte-identical to running Engine.Learn in process with the same options —
// including one served from the result cache, whose key guarantees it was
// produced by exactly that run — which the end-to-end tests pin.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dlearn"
	"dlearn/internal/core"
	"dlearn/internal/fault"
	"dlearn/internal/observe"
	"dlearn/internal/persist"
	"dlearn/internal/server/wire"
)

// Admission errors; the HTTP layer maps them to 429/503 responses.
var (
	// ErrQueueFull means the bounded job queue is at capacity.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrTenantBusy means the submitting tenant is at its in-flight job cap.
	ErrTenantBusy = errors.New("server: tenant at in-flight job cap")
	// ErrDraining means the server is shutting down and rejects new jobs.
	ErrDraining = errors.New("server: draining, not accepting new jobs")
)

// errServerShutdown is the cancellation cause a hard shutdown (the drain
// deadline expiring) installs on the base context. It distinguishes a
// server-initiated cancellation from a client cancel or a per-job deadline,
// so jobs killed by the shutdown terminate as cancelled rather than failed.
var errServerShutdown = errors.New("cancelled by server shutdown")

// Config configures a Server. The zero value serves with sensible defaults
// and no snapshot persistence.
type Config struct {
	// MaxQueued bounds the number of accepted-but-not-yet-running jobs;
	// submissions beyond it are rejected with 429. Zero means 64. Jobs
	// recovered from the journal are always re-enqueued, even past the cap.
	MaxQueued int
	// MaxConcurrent is the number of jobs learning at once (the worker
	// count). Zero means 2.
	MaxConcurrent int
	// MaxPerTenant caps one tenant's in-flight (queued plus running) jobs,
	// keyed by the X-Tenant header. Zero means 8; negative disables the cap.
	MaxPerTenant int
	// DefaultTimeout is the per-job deadline applied when a job requests
	// none. Zero means 5 minutes.
	DefaultTimeout time.Duration
	// MaxTimeout clamps the deadline a job may request. Zero means 30
	// minutes.
	MaxTimeout time.Duration
	// MaxRetainedJobs bounds the finished jobs kept for status and event
	// replay; the oldest finished jobs are evicted first. Zero means 256.
	MaxRetainedJobs int
	// JobDir, when non-empty, makes jobs durable: every accepted job and its
	// terminal outcome is journalled there, and New recovers the journal —
	// interrupted jobs are re-enqueued and re-run, finished jobs are restored
	// into the registry (status, result, event replay, stats outcomes).
	// Empty disables durability.
	JobDir string
	// ResultCacheMaxBytes caps the in-memory result cache, which serves a
	// resubmitted bit-identical job its completed result instantly. Entries
	// are evicted least recently used past the cap. Zero means 64 MiB;
	// negative disables the cache.
	ResultCacheMaxBytes int64
	// EngineOptions is the server-side base configuration every job starts
	// from (threads, budgets, ...); per-job wire options are applied on top.
	EngineOptions []dlearn.Option
	// Store, when non-nil, is the snapshot store shared by every job.
	// Content-addressed keys make cross-tenant sharing safe: a key is a
	// fingerprint over the whole problem and preparation options, so one
	// tenant can never be served another tenant's preparation unless they
	// submitted bit-identical inputs — in which case the dedup is the point.
	Store dlearn.SnapshotStore
	// MaxEventLogBytes caps the serialized event log a terminal journal
	// rewrite persists; past it the oldest events are dropped and the
	// replayed stream starts with a log_truncated marker event. Zero means
	// 1 MiB; negative disables the cap. Live streams are never truncated —
	// only what a restarted server can replay.
	MaxEventLogBytes int
	// SSEBufferEvents bounds the per-subscriber event buffer between the
	// feeder following a job's log and the connection writing it out. A
	// subscriber whose buffer stays full past SSEWriteTimeout is dropped (it
	// reconnects with Last-Event-ID and replays what it missed) so one stalled
	// consumer can never pin the stream's memory. Zero means 64.
	SSEBufferEvents int
	// SSEWriteTimeout bounds both a single SSE write and the grace a
	// subscriber with a full buffer gets before being dropped. Zero means 10
	// seconds.
	SSEWriteTimeout time.Duration
	// Faults, when non-nil, injects scheduled faults at the server's I/O
	// seams (journal writes, the SSE writer, the job worker). Test hook; nil
	// in production costs one nil check per seam.
	Faults *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxPerTenant == 0 {
		c.MaxPerTenant = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 256
	}
	if c.MaxEventLogBytes == 0 {
		c.MaxEventLogBytes = 1 << 20
	}
	if c.SSEBufferEvents <= 0 {
		c.SSEBufferEvents = 64
	}
	if c.SSEWriteTimeout <= 0 {
		c.SSEWriteTimeout = 10 * time.Second
	}
	return c
}

// Server is the dlearn-serve core: queue, workers, job registry and
// counters. Create one with New, serve its Handler, and stop it with
// Shutdown.
type Server struct {
	cfg Config

	// baseCtx parents every job context; baseCancel is the hard-stop used
	// when a graceful drain exceeds its deadline, installing
	// errServerShutdown as the cancellation cause.
	baseCtx    context.Context
	baseCancel func()

	// journal persists accepted jobs and their outcomes (nil without JobDir);
	// results caches completed results by fingerprint (nil when disabled).
	journal *journal
	results *resultCache

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	finished []string // finished job IDs, oldest first, for retention eviction
	tenants  map[string]int

	running atomic.Int64

	// recovered counts jobs restored from the journal at boot;
	// journalCorrupt counts records set aside as .corrupt at the same boot.
	// Both are written once in New, before any reader exists.
	recovered      int
	journalCorrupt int

	// Admission and outcome counters (see wire.Stats).
	submitted         atomic.Int64
	completed         atomic.Int64
	failed            atomic.Int64
	cancelled         atomic.Int64
	rejectedQueueFull atomic.Int64
	rejectedTenantCap atomic.Int64
	rejectedDraining  atomic.Int64

	resultCacheHits atomic.Int64

	snapHits   atomic.Int64
	snapMisses atomic.Int64
	sched      *observe.SchedulerStats

	// Failure-hardening counters (see wire.Stats). The server keeps serving
	// through every one of these conditions; the counters make them visible.
	degradedJobs          atomic.Int64
	journalWriteFailures  atomic.Int64
	snapshotWriteFailures atomic.Int64
	sseSlowDrops          atomic.Int64
	workerPanics          atomic.Int64
}

// New builds a server, recovers the job journal when one is configured, and
// starts the worker pool. It fails only when the journal directory cannot be
// prepared or read — individual corrupt records are set aside, never fatal.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: func() { cancel(errServerShutdown) },
		jobs:       make(map[string]*Job),
		tenants:    make(map[string]int),
		sched:      observe.NewSchedulerStats(),
	}
	if cfg.ResultCacheMaxBytes >= 0 {
		s.results = newResultCache(cfg.ResultCacheMaxBytes)
	}

	var pending []*Job
	if cfg.JobDir != "" {
		jl, err := openJournal(cfg.JobDir)
		if err != nil {
			return nil, err
		}
		jl.faults = cfg.Faults
		s.journal = jl
		recs, corrupt, err := jl.load()
		if err != nil {
			return nil, err
		}
		s.journalCorrupt = corrupt
		pending = s.recover(recs)
	}

	// Recovered jobs are re-enqueued unconditionally: widen the queue beyond
	// MaxQueued if the backlog demands it (admission still enforces the
	// configured cap for new submissions).
	queueCap := cfg.MaxQueued
	if len(pending) > queueCap {
		queueCap = len(pending)
	}
	s.queue = make(chan *Job, queueCap)
	for _, j := range pending {
		s.queue <- j
	}

	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover replays journal records into a not-yet-serving server: terminal
// records return to the registry (completed results also warm the result
// cache), and non-terminal records — queued at the crash, or running and
// never finished — are rebuilt as queued jobs for New to re-enqueue.
// Outcome counters are restored so /v1/stats survives the restart.
func (s *Server) recover(recs []journalRecord) []*Job {
	var pending []*Job
	type finishedAt struct {
		id string
		at time.Time
	}
	var finished []finishedAt
	for _, rec := range recs {
		s.submitted.Add(1)
		s.recovered++
		if terminal(rec.State) {
			j := recoverJob(s.baseCtx, rec, nil, 0)
			s.jobs[j.ID] = j
			finished = append(finished, finishedAt{rec.ID, rec.FinishedAt})
			switch rec.State {
			case wire.StateDone:
				s.completed.Add(1)
				if key, ok := persist.ParseKey(rec.ResultKey); ok && s.results != nil && rec.Result != nil {
					s.results.put(key, *rec.Result)
				}
			case wire.StateFailed:
				s.failed.Add(1)
			case wire.StateCancelled:
				s.cancelled.Add(1)
			}
			continue
		}
		p, err := rec.Problem.Decode()
		if err != nil {
			// The record's problem no longer decodes (wire drift across
			// versions, or a hand-edited file): surface it as a failed job
			// rather than silently dropping it.
			j := recoverJob(s.baseCtx, rec, nil, 0)
			s.finish(j, failOutcome(wire.StateFailed, fmt.Sprintf("recovering job from journal: %v", err)), "", false)
			s.jobs[j.ID] = j
			finished = append(finished, finishedAt{rec.ID, j.Status().FinishedAt})
			continue
		}
		j := recoverJob(s.baseCtx, rec, p, s.jobTimeout(rec.Problem.Options))
		s.jobs[j.ID] = j
		s.tenants[j.Tenant]++
		pending = append(pending, j)
	}

	// Rebuild the retention order by finish time (load sorts by submission,
	// which is the right order for the queue but not for eviction).
	sort.Slice(finished, func(i, k int) bool {
		if !finished[i].at.Equal(finished[k].at) {
			return finished[i].at.Before(finished[k].at)
		}
		return finished[i].id < finished[k].id
	})
	for _, f := range finished {
		s.finished = append(s.finished, f.id)
	}
	for len(s.finished) > s.cfg.MaxRetainedJobs {
		delete(s.jobs, s.finished[0])
		if s.journal != nil {
			s.journal.remove(s.finished[0])
		}
		s.finished = s.finished[1:]
	}
	return pending
}

// jobTimeout resolves a job's effective deadline from its requested timeout
// and the server's default and maximum.
func (s *Server) jobTimeout(opts wire.Options) time.Duration {
	timeout := opts.Timeout()
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// Submit admits a job: per-tenant cap first, then a non-blocking reservation
// of a queue slot. With a journal configured the job is persisted before the
// submission is acknowledged, so an accepted job survives a crash. The
// returned job is already registered and will eventually run, fail or be
// cancelled.
func (s *Server) Submit(tenant string, p *dlearn.Problem, opts wire.Options) (*Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	j := newJob(s.baseCtx, tenant, p, opts, s.jobTimeout(opts))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejectedDraining.Add(1)
		return nil, ErrDraining
	}
	if s.cfg.MaxPerTenant > 0 && s.tenants[tenant] >= s.cfg.MaxPerTenant {
		s.rejectedTenantCap.Add(1)
		return nil, fmt.Errorf("%w (%d in flight)", ErrTenantBusy, s.tenants[tenant])
	}
	// The queue channel may be wider than MaxQueued after a recovery with a
	// large backlog; the explicit occupancy check keeps admission at the
	// configured cap regardless.
	if len(s.queue) >= s.cfg.MaxQueued {
		s.rejectedQueueFull.Add(1)
		return nil, ErrQueueFull
	}
	if s.journal != nil {
		wp := wire.EncodeProblem(p)
		wp.Options = opts
		j.wireProblem = wp
		if err := s.journal.save(journalRecord{
			ID:          j.ID,
			Tenant:      j.Tenant,
			State:       wire.StateQueued,
			SubmittedAt: j.submitted,
			Problem:     wp,
		}); err != nil {
			// Degraded-mode admission: a failing journal must not turn away
			// work the server can still do. The job is accepted and runs in
			// memory as best effort — it just would not survive a restart —
			// flagged on its status, counted in /v1/stats and announced on
			// its event stream so the degradation is observable everywhere.
			s.journalWriteFailures.Add(1)
			if j.degrade("journal", err.Error()) {
				s.degradedJobs.Add(1)
			}
		}
	}
	select {
	case s.queue <- j:
	default:
		if s.journal != nil {
			s.journal.remove(j.ID)
		}
		s.rejectedQueueFull.Add(1)
		return nil, ErrQueueFull
	}
	s.tenants[tenant]++
	s.jobs[j.ID] = j
	s.submitted.Add(1)
	return j, nil
}

// Job returns a registered job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job by ID. A queued job is marked cancelled immediately;
// a running job's context is cancelled and the worker records the terminal
// state as soon as the engine unwinds (cancellation is plumbed into the
// covering loop and every θ-subsumption search, so that is prompt).
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	j.cancel(errCancelledByClient)
	// If the job is still queued, record the terminal state now so status
	// and streams resolve immediately; the worker that eventually drains it
	// will see the transition and skip it. If a worker won the race and
	// started the job, the cancelled context unwinds the engine instead.
	s.finish(j, failOutcome(wire.StateCancelled, errCancelledByClient.Error()), "", true)
	return j, true
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
		s.release(j)
	}
}

// release returns the job's tenant slot and applies finished-job retention.
func (s *Server) release(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.tenants[j.Tenant]; n <= 1 {
		delete(s.tenants, j.Tenant)
	} else {
		s.tenants[j.Tenant] = n - 1
	}
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.cfg.MaxRetainedJobs {
		delete(s.jobs, s.finished[0])
		if s.journal != nil {
			// An evicted job is gone from the registry; keeping its record
			// would resurrect it at the next boot.
			s.journal.remove(s.finished[0])
		}
		s.finished = s.finished[1:]
	}
}

// finish performs a job's one terminal transition, unless the job is already
// terminal or another terminator holds the claim (queuedOnly also leaves a
// started job alone: its worker will finish it). The terminal journal
// record — state, result or error, the event log (size-capped, oldest
// events dropped behind a log_truncated marker) — is written before the
// terminal state becomes observable, so a client that sees a job finish can
// rely on the record saying so too. The write is best effort: a failure
// only means the job re-runs after a restart — safe, because re-running a
// deterministic job reproduces the same result — but it is counted and the
// job flagged degraded so the weakened durability is visible. The outcome
// counters move before the state is published as well.
func (s *Server) finish(j *Job, o outcome, resultKey string, queuedOnly bool) {
	if !j.claimTerminal(queuedOnly) {
		return
	}
	finished := time.Now()
	if s.journal != nil {
		started, events, degraded := j.journalView()
		events = append(events, journalEvent{Name: o.event.name, Data: o.event.data})
		err := s.journal.save(journalRecord{
			ID:          j.ID,
			Tenant:      j.Tenant,
			State:       o.state,
			SubmittedAt: j.submitted,
			StartedAt:   started,
			FinishedAt:  finished,
			Problem:     j.wireProblem,
			Error:       o.errMsg,
			Result:      o.result,
			ResultKey:   resultKey,
			Events:      truncateEvents(events, s.cfg.MaxEventLogBytes),
			Degraded:    degraded,
		})
		if err != nil {
			s.journalWriteFailures.Add(1)
			if j.degrade("journal", err.Error()) {
				s.degradedJobs.Add(1)
			}
		}
	}
	switch o.state {
	case wire.StateDone:
		s.completed.Add(1)
	case wire.StateCancelled:
		s.cancelled.Add(1)
	default:
		s.failed.Add(1)
	}
	j.publish(o, finished)
}

// runJob executes one job end to end. A panic anywhere in the job — the
// learner, an observer, injected by the chaos suite — is confined to the
// job: it terminates as failed with the recovered value and stack in its
// error (and journal record), and the worker goroutine survives to serve the
// next job. Without the recover a single panicking job would crash the whole
// process and every other tenant's jobs with it.
func (s *Server) runJob(j *Job) {
	if !j.start() {
		// Cancelled while queued; the terminal event is already recorded.
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			s.workerPanics.Add(1)
			s.finish(j, failOutcome(wire.StateFailed, fmt.Sprintf("job panicked: %v\n%s", r, debug.Stack())), "", false)
		}
	}()
	s.cfg.Faults.Panic("worker.run")

	jobOpts, err := j.opts.EngineOptions()
	if err != nil {
		// Options were validated at admission; a failure here is a bug.
		s.finish(j, failOutcome(wire.StateFailed, err.Error()), "", false)
		return
	}
	opts := append(append([]dlearn.Option{}, s.cfg.EngineOptions...), jobOpts...)
	if s.cfg.Store != nil {
		opts = append(opts, dlearn.WithSnapshotStore(s.cfg.Store))
	}

	// Consult the result cache before the engine ever runs. The key is the
	// result fingerprint of the problem under the job's effective engine
	// configuration (server base options plus the job's own), so a hit is by
	// construction the result of exactly the run this job would perform.
	var key persist.Key
	if s.results != nil {
		key = core.ResultKey(*j.problem, dlearn.New(opts...).Config())
		if !j.opts.NoCache {
			if res, size, ok := s.results.get(key); ok {
				s.resultCacheHits.Add(1)
				if data, err := observe.MarshalEvent(observe.ResultCacheHit{Key: key.String(), Bytes: size}); err == nil {
					j.appendEvent(observe.TypeResultCacheHit, data)
				}
				s.finish(j, doneOutcome(res), key.String(), false)
				return
			}
		}
	}

	ctx, cancelTimeout := context.WithTimeout(j.ctx, j.timeout)
	defer cancelTimeout()

	obs := observe.Func(func(e observe.Event) {
		s.cfg.Faults.Panic("worker.observe")
		s.countSnapshotEvents(j, e)
		if data, err := observe.MarshalEvent(e); err == nil {
			j.appendEvent(observe.TypeName(e), data)
		}
	})
	opts = append(opts, dlearn.WithObserver(obs, s.sched))

	def, report, err := dlearn.New(opts...).Learn(ctx, j.problem)
	switch {
	case err == nil:
		res := wire.EncodeResult(def, report)
		resultKey := ""
		if s.results != nil {
			s.results.put(key, res)
			resultKey = key.String()
		}
		s.finish(j, doneOutcome(res), resultKey, false)
	case context.Cause(j.ctx) == errCancelledByClient:
		s.finish(j, failOutcome(wire.StateCancelled, errCancelledByClient.Error()), "", false)
	case context.Cause(j.ctx) == errServerShutdown:
		// A hard shutdown (drain deadline expired, base context cancelled)
		// is a server-initiated cancellation, not a job failure.
		s.finish(j, failOutcome(wire.StateCancelled, errServerShutdown.Error()), "", false)
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.finish(j, failOutcome(wire.StateFailed, fmt.Sprintf("deadline exceeded after %s", j.timeout)), "", false)
	default:
		s.finish(j, failOutcome(wire.StateFailed, err.Error()), "", false)
	}
}

// countSnapshotEvents aggregates the snapshot events of a run into server
// counters; a failed snapshot write additionally degrades the job, because
// its preparation will not be served warm to anyone until the store heals.
func (s *Server) countSnapshotEvents(j *Job, e observe.Event) {
	switch ev := e.(type) {
	case observe.SnapshotHit:
		s.snapHits.Add(1)
	case observe.SnapshotMiss:
		s.snapMisses.Add(1)
	case observe.SnapshotWriteFailed:
		s.snapshotWriteFailures.Add(1)
		if j.degrade("snapshot", ev.Error) {
			s.degradedJobs.Add(1)
		}
	}
}

// Shutdown drains the server: new submissions are rejected immediately,
// queued and running jobs are allowed to finish. If ctx expires first,
// every remaining job is cancelled hard — those jobs terminate as cancelled
// (errServerShutdown), not failed — and Shutdown returns ctx.Err() after
// the workers exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Ready reports whether the server accepts new submissions, plus the
// degradation signals /readyz exposes alongside the verdict.
func (s *Server) Ready() wire.Ready {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return wire.Ready{
		Ready:                 !draining,
		Draining:              draining,
		DegradedJobs:          s.degradedJobs.Load(),
		JournalCorruptRecords: s.journalCorrupt,
	}
}

// Stats snapshots the server counters for /v1/stats.
func (s *Server) Stats() wire.Stats {
	s.mu.Lock()
	tenants := len(s.tenants)
	jobsHeld := len(s.jobs)
	s.mu.Unlock()

	st := wire.Stats{
		QueueDepth:  len(s.queue),
		QueueCap:    s.cfg.MaxQueued,
		Running:     int(s.running.Load()),
		MaxRunning:  s.cfg.MaxConcurrent,
		JobsHeld:    jobsHeld,
		TenantsBusy: tenants,

		Submitted:         s.submitted.Load(),
		Completed:         s.completed.Load(),
		Failed:            s.failed.Load(),
		Cancelled:         s.cancelled.Load(),
		RejectedQueueFull: s.rejectedQueueFull.Load(),
		RejectedTenantCap: s.rejectedTenantCap.Load(),
		RejectedDraining:  s.rejectedDraining.Load(),

		ResultCacheHits: s.resultCacheHits.Load(),
		RecoveredJobs:   s.recovered,

		DegradedJobs:          s.degradedJobs.Load(),
		JournalWriteFailures:  s.journalWriteFailures.Load(),
		SnapshotWriteFailures: s.snapshotWriteFailures.Load(),
		JournalCorruptRecords: s.journalCorrupt,
		SSESlowDrops:          s.sseSlowDrops.Load(),
		WorkerPanics:          s.workerPanics.Load(),

		SnapshotHits:       s.snapHits.Load(),
		SnapshotMisses:     s.snapMisses.Load(),
		SnapshotStoreBytes: -1,
		SnapshotStoreFiles: -1,
	}
	if s.results != nil {
		st.ResultCacheBytes, st.ResultCacheEntries = s.results.stats()
	}
	if total := st.SnapshotHits + st.SnapshotMisses; total > 0 {
		st.SnapshotHitRate = float64(st.SnapshotHits) / float64(total)
	}
	if dir, ok := s.cfg.Store.(*dlearn.DirSnapshotStore); ok && dir != nil {
		if bytes, files, err := dir.Size(); err == nil {
			st.SnapshotStoreBytes, st.SnapshotStoreFiles = bytes, files
		}
	}
	sched := s.sched.Snapshot()
	st.SchedulerBatches = sched.Batches
	st.SchedulerCandidates = sched.Candidates
	st.SchedulerEarlyExits = sched.EarlyExited
	st.SchedulerEarlyExitRate = sched.EarlyExitRate
	return st
}
