package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"dlearn"
	"dlearn/internal/observe"
	"dlearn/internal/server/wire"
)

// errCancelledByClient is the cancellation cause a DELETE /v1/jobs/{id}
// installs; it distinguishes a client cancel from a deadline or a server
// shutdown when the engine returns context.Canceled.
var errCancelledByClient = errors.New("cancelled by client")

// streamEvent is one server-sent event of a job's stream: the SSE event
// name plus its JSON data payload.
type streamEvent struct {
	name string
	data []byte
}

// Job is one submitted learning problem moving through the queue. All
// mutable state is guarded by mu; the event log is append-only, so readers
// hold the lock only long enough to slice it.
type Job struct {
	ID      string
	Tenant  string
	problem *dlearn.Problem
	opts    wire.Options
	timeout time.Duration
	// wireProblem is the job's wire encoding (problem plus options), kept for
	// journal rewrites at the terminal transition. Only set when the server
	// journals jobs; immutable after submission.
	wireProblem wire.Problem

	// ctx governs the job's whole life, created at submission from the
	// server's base context so a queued job can be cancelled before it ever
	// runs and a server shutdown reaches running jobs.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu        sync.Mutex
	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	result    *wire.Result
	events    []streamEvent
	// degraded marks a job whose persistence failed mid-flight: the job keeps
	// running in memory (best effort) but would not survive a restart the way
	// a fully journalled job does.
	degraded bool
	// finishing marks a claimed terminal transition not yet published (see
	// claimTerminal): the journal record is written in that window.
	finishing bool
	// changed is closed and replaced whenever events or state change;
	// stream readers wait on it instead of polling.
	changed chan struct{}
}

// newJobID returns a fresh 128-bit random hex job ID.
func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a panic beats
		// handing out colliding IDs.
		panic("server: generating job ID: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

func newJob(base context.Context, tenant string, p *dlearn.Problem, opts wire.Options, timeout time.Duration) *Job {
	ctx, cancel := context.WithCancelCause(base)
	return &Job{
		ID:        newJobID(),
		Tenant:    tenant,
		problem:   p,
		opts:      opts,
		timeout:   timeout,
		ctx:       ctx,
		cancel:    cancel,
		state:     wire.StateQueued,
		submitted: time.Now(),
		changed:   make(chan struct{}),
	}
}

// signal wakes every stream reader; callers must hold mu.
func (j *Job) signal() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// appendEvent adds one SSE event to the job's stream.
func (j *Job) appendEvent(name string, data []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, streamEvent{name: name, data: data})
	j.signal()
}

// start transitions queued → running. It reports false when the job was
// cancelled while queued (or is being cancelled: its terminal transition is
// claimed), in which case the worker must skip it.
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != wire.StateQueued || j.finishing {
		return false
	}
	j.state = wire.StateRunning
	j.started = time.Now()
	j.signal()
	return true
}

// outcome is a job's terminal transition: the final state, its result or
// error, and the terminal stream event ("result" or "error") carrying it.
type outcome struct {
	state  string
	errMsg string
	result *wire.Result
	event  streamEvent
}

// doneOutcome is a successful run's outcome. A result that does not encode
// fails the job instead.
func doneOutcome(res wire.Result) outcome {
	data, err := json.Marshal(res)
	if err != nil {
		return failOutcome(wire.StateFailed, "encoding result: "+err.Error())
	}
	return outcome{state: wire.StateDone, result: &res, event: streamEvent{name: wire.EventResult, data: data}}
}

// failOutcome is a failed or cancelled run's outcome.
func failOutcome(state, msg string) outcome {
	data, _ := json.Marshal(wire.JobError{State: state, Error: msg})
	return outcome{state: state, errMsg: msg, event: streamEvent{name: wire.EventError, data: data}}
}

// claimTerminal reserves the job's one terminal transition for the caller.
// It reports false when the job is already terminal or another caller holds
// the claim, so two racing terminators (a shutdown and a cancel, a panic
// recovery and a completion) can never both finish the job. queuedOnly
// restricts the claim to a job no worker has started; a claimed queued job
// is never started either (see start). The claimed transition stays
// invisible — status and streams still show the previous state — until
// publish.
func (j *Job) claimTerminal(queuedOnly bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finishing || terminal(j.state) || (queuedOnly && j.state != wire.StateQueued) {
		return false
	}
	j.finishing = true
	return true
}

// publish applies a claimed terminal transition: state, result or error and
// the terminal event land atomically, so a stream reader that sees the
// terminal state has the full event log.
func (j *Job) publish(o outcome, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = o.state
	j.finished = finished
	j.errMsg = o.errMsg
	j.result = o.result
	j.events = append(j.events, o.event)
	j.signal()
}

// degrade marks the job's persistence as best-effort after a failed write,
// appending a persistence_degraded event to the stream while the job is
// still live (a post-terminal degradation only flips the flag — the stream
// has already delivered its terminal event). It reports whether the job was
// newly degraded, so callers can count degraded jobs exactly once.
func (j *Job) degrade(component, detail string) bool {
	data, err := observe.MarshalEvent(observe.PersistenceDegraded{Component: component, Detail: detail})
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded {
		return false
	}
	j.degraded = true
	if err == nil && !terminal(j.state) {
		j.events = append(j.events, streamEvent{name: observe.TypePersistenceDegraded, data: data})
		j.signal()
	}
	return true
}

// terminal reports whether a state is final.
func terminal(state string) bool {
	switch state {
	case wire.StateDone, wire.StateFailed, wire.StateCancelled:
		return true
	}
	return false
}

// eventsFrom returns the stream events at index ≥ from, whether the stream
// has terminated, and a channel that is closed on the next change (for
// readers that caught up). The index is clamped to [0, len(events)]: a
// negative index (a hostile or garbage Last-Event-ID upstream) replays from
// the start instead of panicking on a negative slice bound, and an index
// past the end simply has nothing to replay yet.
func (j *Job) eventsFrom(from int) (evs []streamEvent, done bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(j.events) {
		evs = j.events[from:len(j.events):len(j.events)]
	}
	return evs, terminal(j.state), j.changed
}

// recoverJob rebuilds a job from its journal record. A terminal record is
// restored complete — state, timestamps, result or error, and the full event
// log, so status and event replay behave exactly as before the restart. A
// non-terminal record (queued at the crash, or running and never finished)
// comes back as a queued job ready to be re-enqueued; problem and opts must
// then be the decoded wire problem so the re-run learns the original
// submission.
func recoverJob(base context.Context, rec journalRecord, p *dlearn.Problem, timeout time.Duration) *Job {
	ctx, cancel := context.WithCancelCause(base)
	j := &Job{
		ID:          rec.ID,
		Tenant:      rec.Tenant,
		problem:     p,
		opts:        rec.Problem.Options,
		timeout:     timeout,
		wireProblem: rec.Problem,
		ctx:         ctx,
		cancel:      cancel,
		state:       wire.StateQueued,
		submitted:   rec.SubmittedAt,
		changed:     make(chan struct{}),
	}
	if terminal(rec.State) {
		j.state = rec.State
		j.started = rec.StartedAt
		j.finished = rec.FinishedAt
		j.errMsg = rec.Error
		j.result = rec.Result
		j.degraded = rec.Degraded
		for _, ev := range rec.Events {
			j.events = append(j.events, streamEvent{name: ev.Name, data: ev.Data})
		}
	}
	return j
}

// journalView snapshots the fields the job journal persists besides the
// terminal outcome, under the job lock.
func (j *Job) journalView() (started time.Time, events []journalEvent, degraded bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	events = make([]journalEvent, len(j.events), len(j.events)+1)
	for i, ev := range j.events {
		events[i] = journalEvent{Name: ev.name, Data: ev.data}
	}
	return j.started, events, j.degraded
}

// Status snapshots the job for GET /v1/jobs/{id}.
func (j *Job) Status() wire.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return wire.JobStatus{
		ID:          j.ID,
		Tenant:      j.Tenant,
		State:       j.state,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Events:      len(j.events),
		Error:       j.errMsg,
		Result:      j.result,
		Degraded:    j.degraded,
	}
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
