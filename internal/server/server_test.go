package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dlearn"
	"dlearn/internal/observe"
	"dlearn/internal/server/wire"
)

// serveProblem builds a small but non-trivial problem: two relations, an MD,
// a CFD with a pattern, both example polarities.
func serveProblem(t *testing.T) *dlearn.Problem {
	t.Helper()
	schema := dlearn.NewSchema()
	schema.MustAdd(dlearn.NewRelation("movies",
		dlearn.Attr("id", "imdb_id"), dlearn.Attr("title", "imdb_title"), dlearn.ConstAttr("year", "year")))
	schema.MustAdd(dlearn.NewRelation("mov2genres",
		dlearn.Attr("id", "imdb_id"), dlearn.ConstAttr("genre", "genre")))

	db := dlearn.NewInstance(schema)
	rows := []struct{ id, title, genre string }{
		{"m1", "Silent Harbor", "comedy"},
		{"m2", "Crimson Station", "comedy"},
		{"m3", "Broken Mirror", "drama"},
		{"m4", "Hidden Canyon", "drama"},
		{"m5", "Electric Parade", "comedy"},
		{"m6", "Midnight Archive", "thriller"},
	}
	for _, r := range rows {
		db.MustInsert("movies", r.id, r.title+" (2007)", "2007")
		db.MustInsert("mov2genres", r.id, r.genre)
	}

	target := dlearn.NewRelation("highGrossing", dlearn.Attr("title", "bom_title"))
	b := dlearn.NewProblem(target).
		OnInstance(db).
		WithMDs(dlearn.SimpleMD("md_title", "highGrossing", "title", "movies", "title")).
		WithCFDs(dlearn.NewCFD("cfd_year", "movies", []string{"id"}, "year", map[string]string{"year": "2007"}))
	for _, r := range rows {
		if r.genre == "comedy" {
			b.PosValues(r.title)
		} else {
			b.NegValues(r.title)
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func serveOptions() wire.Options {
	return wire.Options{
		Seed:                 7,
		Threads:              2,
		Iterations:           2,
		TopMatches:           2,
		GeneralizationSample: 3,
		MaxClauses:           3,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, &Client{BaseURL: ts.URL, Tenant: "test"}
}

// gate blocks every engine run at its first observer event until released,
// making in-flight jobs deterministic for admission and cancel tests.
type gate struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) Observe(observe.Event) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
}

func (g *gate) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("no job reached the gate")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEndByteIdentical is the tentpole acceptance test: a job submitted
// over HTTP must stream at least one progress event before its terminal
// event and learn a definition byte-identical to a direct Engine.Learn with
// the same options.
func TestEndToEndByteIdentical(t *testing.T) {
	_, client := newTestServer(t, Config{MaxConcurrent: 2})

	p := serveProblem(t)
	var progress int
	res, err := client.Learn(context.Background(), p, serveOptions(), func(dlearn.Event) {
		progress++
	})
	if err != nil {
		t.Fatal(err)
	}
	if progress < 1 {
		t.Error("no progress events streamed before the terminal event")
	}

	engOpts, err := serveOptions().EngineOptions()
	if err != nil {
		t.Fatal(err)
	}
	def, _, err := dlearn.New(engOpts...).Learn(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Definition != def.String() {
		t.Fatalf("remote definition differs from direct Engine.Learn:\n--- remote ---\n%s\n--- direct ---\n%s",
			res.Definition, def)
	}
	if res.Target != def.Target {
		t.Errorf("target = %q, want %q", res.Target, def.Target)
	}
	if len(res.Clauses) != len(def.Clauses) {
		t.Errorf("clauses = %d, want %d", len(res.Clauses), len(def.Clauses))
	}
	if res.Report.DurationSeconds <= 0 {
		t.Error("report carries no duration")
	}
}

// TestSSEStreamReplaysAndTerminates checks that a subscriber attaching after
// completion still replays the full event log, ending with the terminal
// result event, and that event payloads decode via the observe codec.
func TestSSEStreamReplaysAndTerminates(t *testing.T) {
	s, client := newTestServer(t, Config{})

	acc, err := client.Submit(context.Background(), func() wire.Problem {
		wp := wire.EncodeProblem(serveProblem(t))
		wp.Options = serveOptions()
		return wp
	}())
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.Job(acc.ID)
	if !ok {
		t.Fatal("job not registered")
	}
	waitFor(t, "job completion", func() bool { return terminal(j.State()) })

	var names []string
	var last SSEEvent
	if err := client.StreamFrom(context.Background(), acc.ID, "", func(ev SSEEvent) error {
		names = append(names, ev.Name)
		last = ev
		if ev.Name != wire.EventResult && ev.Name != wire.EventError {
			if _, err := observe.UnmarshalEvent(ev.Data); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("replay produced %d events, want at least a progress and a terminal event", len(names))
	}
	if last.Name != wire.EventResult {
		t.Fatalf("stream terminated with %q, want %q (events: %s)", last.Name, wire.EventResult, strings.Join(names, ", "))
	}
	var res wire.Result
	if err := json.Unmarshal(last.Data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Definition == "" {
		t.Error("terminal result has no definition")
	}

	st, err := client.Status(context.Background(), acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != wire.StateDone || st.Result == nil || st.Events != len(names) {
		t.Errorf("status = %+v, want done with %d events and a result", st, len(names))
	}
}

// TestAdmissionQueueFull pins the 429 path: with one worker held at the gate
// and a single queue slot taken, the next submission is rejected with 429
// and a Retry-After header.
func TestAdmissionQueueFull(t *testing.T) {
	g := newGate()
	defer close(g.release)
	_, client := newTestServer(t, Config{
		MaxQueued:     1,
		MaxConcurrent: 1,
		MaxPerTenant:  -1,
		EngineOptions: []dlearn.Option{dlearn.WithObserver(g)},
	})

	wp := wire.EncodeProblem(serveProblem(t))
	wp.Options = serveOptions()

	if _, err := client.Submit(context.Background(), wp); err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t) // first job is running, holding the only worker
	if _, err := client.Submit(context.Background(), wp); err != nil {
		t.Fatal(err) // second job occupies the single queue slot
	}

	data, _ := json.Marshal(wp)
	req, _ := http.NewRequest(http.MethodPost, client.BaseURL+"/v1/jobs", strings.NewReader(string(data)))
	req.Header.Set("X-Tenant", "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestAdmissionTenantCap pins the per-tenant in-flight cap: one tenant at
// its cap is rejected while another tenant is still admitted.
func TestAdmissionTenantCap(t *testing.T) {
	g := newGate()
	defer close(g.release)
	_, client := newTestServer(t, Config{
		MaxQueued:     8,
		MaxConcurrent: 1,
		MaxPerTenant:  1,
		EngineOptions: []dlearn.Option{dlearn.WithObserver(g)},
	})

	wp := wire.EncodeProblem(serveProblem(t))
	wp.Options = serveOptions()

	if _, err := client.Submit(context.Background(), wp); err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t)

	_, err := client.Submit(context.Background(), wp)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-tenant submission got %v, want 429", err)
	}

	other := &Client{BaseURL: client.BaseURL, Tenant: "other"}
	if _, err := other.Submit(context.Background(), wp); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

// TestCancelRunningJob holds a job at the gate mid-run, cancels it over
// HTTP, and requires the stream to terminate with a cancelled error event.
func TestCancelRunningJob(t *testing.T) {
	g := newGate()
	s, client := newTestServer(t, Config{
		MaxConcurrent: 1,
		EngineOptions: []dlearn.Option{dlearn.WithObserver(g)},
	})

	wp := wire.EncodeProblem(serveProblem(t))
	wp.Options = serveOptions()
	acc, err := client.Submit(context.Background(), wp)
	if err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t)

	st, err := client.Cancel(context.Background(), acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != wire.StateRunning && st.State != wire.StateCancelled {
		t.Fatalf("state right after cancel = %q", st.State)
	}
	close(g.release) // unblock the observer; the engine must now unwind

	j, _ := s.Job(acc.ID)
	waitFor(t, "cancellation", func() bool { return j.State() == wire.StateCancelled })

	var last SSEEvent
	if err := client.StreamFrom(context.Background(), acc.ID, "", func(ev SSEEvent) error {
		last = ev
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last.Name != wire.EventError {
		t.Fatalf("terminal event = %q, want %q", last.Name, wire.EventError)
	}
	var je wire.JobError
	if err := json.Unmarshal(last.Data, &je); err != nil {
		t.Fatal(err)
	}
	if je.State != wire.StateCancelled {
		t.Errorf("terminal state = %q, want cancelled", je.State)
	}
}

// TestCancelQueuedJob cancels a job that never started; it must resolve to
// cancelled immediately, without waiting for a worker.
func TestCancelQueuedJob(t *testing.T) {
	g := newGate()
	defer close(g.release)
	_, client := newTestServer(t, Config{
		MaxQueued:     4,
		MaxConcurrent: 1,
		EngineOptions: []dlearn.Option{dlearn.WithObserver(g)},
	})

	wp := wire.EncodeProblem(serveProblem(t))
	wp.Options = serveOptions()
	if _, err := client.Submit(context.Background(), wp); err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t)
	queued, err := client.Submit(context.Background(), wp)
	if err != nil {
		t.Fatal(err)
	}

	st, err := client.Cancel(context.Background(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != wire.StateCancelled {
		t.Fatalf("queued job state after cancel = %q, want cancelled immediately", st.State)
	}
}

// TestGracefulShutdownDrains verifies that Shutdown rejects new work at once
// but lets the in-flight job finish.
func TestGracefulShutdownDrains(t *testing.T) {
	g := newGate()
	s, err := New(Config{
		MaxConcurrent: 1,
		EngineOptions: []dlearn.Option{dlearn.WithObserver(g)},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := serveProblem(t)

	j, err := s.Submit("t", p, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, "draining to start", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})
	if _, err := s.Submit("t", p, serveOptions()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission while draining got %v, want ErrDraining", err)
	}

	close(g.release)
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if j.State() != wire.StateDone {
		t.Fatalf("in-flight job drained to %q, want done", j.State())
	}
	if st := s.Stats(); st.RejectedDraining < 1 || st.Completed != 1 {
		t.Errorf("stats after drain = %+v", st)
	}
}

// TestHardShutdownCancelsJobs verifies the other half of the shutdown
// contract: when the drain deadline expires, in-flight jobs are cancelled by
// the server and must terminate as cancelled — not as failed with a bare
// "context canceled", which would misreport a server decision as a job error.
func TestHardShutdownCancelsJobs(t *testing.T) {
	g := newGate()
	s, err := New(Config{
		MaxConcurrent: 1,
		EngineOptions: []dlearn.Option{dlearn.WithObserver(g)},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := serveProblem(t)
	j, err := s.Submit("t", p, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t)

	// An already-expired drain deadline forces the hard path at once; the
	// engine is still blocked on the gate, so the job cannot drain in time.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	// Shutdown only returns after its workers exit, so the gate must be
	// released while it waits; the unblocked engine then observes the
	// cancelled base context.
	close(g.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("hard shutdown returned %v, want context.Canceled", err)
	}

	if got := j.State(); got != wire.StateCancelled {
		t.Fatalf("hard-shutdown job terminated %q (%s), want cancelled", got, j.Status().Error)
	}
	if msg := j.Status().Error; !strings.Contains(msg, "shutdown") {
		t.Errorf("hard-shutdown job error = %q, want it to name the shutdown", msg)
	}
	if st := s.Stats(); st.Cancelled != 1 || st.Failed != 0 {
		t.Errorf("hard-shutdown stats = %+v, want 1 cancelled / 0 failed", st)
	}
}

// TestSharedSnapshotStoreDedupes submits the same problem from two tenants
// against one shared store: the second job must warm-start from the first
// tenant's preparation and still learn the identical definition. The result
// cache is disabled so the second job actually reaches the engine — with the
// cache on, an identical resubmission never runs at all (covered by the
// result-cache tests).
func TestSharedSnapshotStoreDedupes(t *testing.T) {
	store := dlearn.NewDirSnapshotStore(t.TempDir())
	_, client := newTestServer(t, Config{MaxConcurrent: 1, Store: store, ResultCacheMaxBytes: -1})

	p := serveProblem(t)
	first, err := client.Learn(context.Background(), p, serveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.SnapshotHit {
		t.Fatal("first run cannot be a snapshot hit")
	}

	other := &Client{BaseURL: client.BaseURL, Tenant: "other"}
	second, err := other.Learn(context.Background(), p, serveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Report.SnapshotHit {
		t.Error("second tenant's identical job missed the shared snapshot store")
	}
	if second.Definition != first.Definition {
		t.Errorf("warm-started definition differs:\n%s\nvs\n%s", second.Definition, first.Definition)
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotHits < 1 || st.SnapshotHitRate <= 0 {
		t.Errorf("stats do not reflect the snapshot hit: %+v", st)
	}
	if st.SnapshotStoreFiles < 1 || st.SnapshotStoreBytes <= 0 {
		t.Errorf("stats do not size the shared store: %+v", st)
	}
	if st.SchedulerBatches < 1 || st.SchedulerCandidates < 1 {
		t.Errorf("stats carry no scheduler telemetry: %+v", st)
	}
}

// TestSubmitRejectsMalformed covers the 400 paths.
func TestSubmitRejectsMalformed(t *testing.T) {
	_, client := newTestServer(t, Config{})

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(client.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("syntactically invalid body: %d, want 400", code)
	}
	if code := post(`{"target":{"name":""},"relations":[],"pos":[]}`); code != http.StatusBadRequest {
		t.Errorf("semantically invalid problem: %d, want 400", code)
	}
	wp := wire.EncodeProblem(serveProblem(t))
	wp.Options = wire.Options{MDMode: "telepathy"}
	data, _ := json.Marshal(wp)
	if code := post(string(data)); code != http.StatusBadRequest {
		t.Errorf("invalid options: %d, want 400", code)
	}
	// Job bodies decode strictly, so an option field the server does not
	// know (here one older servers accepted) is rejected, not ignored.
	var raw map[string]any
	data, _ = json.Marshal(wire.EncodeProblem(serveProblem(t)))
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["options"] = map[string]any{"no_literal_planner": true}
	data, _ = json.Marshal(raw)
	if code := post(string(data)); code != http.StatusBadRequest {
		t.Errorf("unknown option field: %d, want 400", code)
	}

	resp, err := http.Get(client.BaseURL + "/v1/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}
