package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dlearn"
	"dlearn/internal/persist"
	"dlearn/internal/server/wire"
)

// bootServer starts a server without registering shutdown cleanup, for tests
// that restart on the same journal directory.
func bootServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	stop := func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
	return s, &Client{BaseURL: ts.URL, Tenant: "test"}, stop
}

// TestJournalRestoresFinishedJobs runs a job to completion, shuts the server
// down, and boots a fresh one on the same journal directory: job status, the
// result, the full event replay and the outcome counters must all survive.
func TestJournalRestoresFinishedJobs(t *testing.T) {
	dir := t.TempDir()

	s1, client1, stop1 := bootServer(t, Config{MaxConcurrent: 1, JobDir: dir})
	p := serveProblem(t)
	first, err := client1.Learn(context.Background(), p, serveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	jobID := findOnlyJobID(t, s1)
	before := streamFrom(t, client1.BaseURL, jobID, "")
	stop1()

	_, client2, stop2 := bootServer(t, Config{MaxConcurrent: 1, JobDir: dir})
	defer stop2()

	st, err := client2.Status(context.Background(), jobID)
	if err != nil {
		t.Fatalf("job %s lost across restart: %v", jobID, err)
	}
	if st.State != wire.StateDone {
		t.Fatalf("recovered job state = %q, want done", st.State)
	}
	if st.Result == nil || st.Result.Definition != first.Definition {
		t.Errorf("recovered result differs from the original")
	}
	after := streamFrom(t, client2.BaseURL, jobID, "")
	if len(after) != len(before) {
		t.Fatalf("recovered event replay has %d events, original had %d", len(after), len(before))
	}
	for i := range before {
		if after[i].Name != before[i].Name || string(after[i].Data) != string(before[i].Data) {
			t.Errorf("recovered event %d = {%s %s}, original {%s %s}",
				i, after[i].Name, after[i].Data, before[i].Name, before[i].Data)
		}
	}

	stats, err := client2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecoveredJobs != 1 || stats.Completed != 1 || stats.Submitted != 1 {
		t.Errorf("recovered stats = %+v, want 1 recovered/completed/submitted", stats)
	}
}

// TestJournalRerunsInterruptedJobs simulates a crash with work in flight: one
// job blocked mid-run on a gate (journalled as queued, never finished) and
// one behind it in the queue. The abandoned server is never shut down; a new
// server on the same directory must re-enqueue and re-run both to completion.
func TestJournalRerunsInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	g := newGate()

	s1, err := New(Config{
		MaxConcurrent: 1,
		JobDir:        dir,
		EngineOptions: []dlearn.Option{dlearn.WithObserver(g)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unblock the abandoned worker at exit and wait for it, so its late
	// journal writes cannot race the TempDir cleanup.
	defer func() {
		close(g.release)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s1.Shutdown(ctx)
	}()
	p := serveProblem(t)
	running, err := s1.Submit("t", p, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t)
	queued, err := s1.Submit("t", p, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Crash: abandon s1 without Shutdown. Both journal records still say
	// queued — the running job never reached a terminal state.

	// A record written by an older server may carry an option field this
	// server no longer knows; recovery decodes leniently, so the job must
	// still recover and run rather than be set aside as corrupt.
	addJournalOption(t, filepath.Join(dir, queued.ID+jobFileExt), "no_literal_planner", true)

	s2, client2, stop2 := bootServer(t, Config{MaxConcurrent: 1, JobDir: dir})
	defer stop2()
	if st := s2.Stats(); st.RecoveredJobs != 2 {
		t.Fatalf("recovered %d jobs, want 2", st.RecoveredJobs)
	}
	for _, id := range []string{running.ID, queued.ID} {
		var st wire.JobStatus
		waitFor(t, "recovered job "+id+" to finish", func() bool {
			var err error
			st, err = client2.Status(context.Background(), id)
			return err == nil && terminal(st.State)
		})
		if st.State != wire.StateDone {
			t.Errorf("re-run job %s finished %q (%s), want done", id, st.State, st.Error)
		}
		if st.Result == nil || st.Result.Definition == "" {
			t.Errorf("re-run job %s has no result", id)
		}
	}
}

// addJournalOption rewrites the journal record at path so its problem's
// options carry the extra field key = value.
func addJournalOption(t *testing.T, path, key string, value any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	problem, ok := rec["problem"].(map[string]any)
	if !ok {
		t.Fatalf("journal record %s has no problem object", path)
	}
	opts, _ := problem["options"].(map[string]any)
	if opts == nil {
		opts = map[string]any{}
	}
	opts[key] = value
	problem["options"] = opts
	if data, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalSetsAsideCorruptRecords writes garbage into the journal
// directory: boot must succeed, rename the damaged files aside, recover
// nothing from them — and count every one in /v1/stats and /readyz, so
// set-aside records are never silently dropped.
func TestJournalSetsAsideCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.job"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A structurally valid record whose ID does not match its filename is
	// just as corrupt as garbage bytes.
	if err := os.WriteFile(filepath.Join(dir, "cafef00d.job"), []byte(`{"id":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{JobDir: dir})
	if err != nil {
		t.Fatalf("boot failed on a corrupt record: %v", err)
	}
	defer s.Shutdown(context.Background())
	if st := s.Stats(); st.RecoveredJobs != 0 {
		t.Errorf("recovered %d jobs from corrupt records", st.RecoveredJobs)
	}
	for _, name := range []string{"deadbeef.job.corrupt", "cafef00d.job.corrupt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("corrupt record was not set aside: %v", err)
		}
	}
	if st := s.Stats(); st.JournalCorruptRecords != 2 {
		t.Errorf("stats count %d corrupt records, want 2", st.JournalCorruptRecords)
	}
	if rd := s.Ready(); rd.JournalCorruptRecords != 2 {
		t.Errorf("readyz reports %d corrupt records, want 2", rd.JournalCorruptRecords)
	}
}

// TestTruncateEvents pins the compaction helper: under the cap the log is
// untouched; over it the oldest events are dropped behind a log_truncated
// marker carrying the drop count, and the terminal event always survives.
func TestTruncateEvents(t *testing.T) {
	mkEvents := func(n int) []journalEvent {
		evs := make([]journalEvent, n)
		for i := range evs {
			evs[i] = journalEvent{Name: "progress", Data: []byte(`{"i":` + string(rune('0'+i%10)) + `}`)}
		}
		evs[n-1] = journalEvent{Name: wire.EventResult, Data: []byte(`{"definition":"d"}`)}
		return evs
	}

	if got := truncateEvents(mkEvents(4), 0); len(got) != 4 {
		t.Errorf("cap 0 (unbounded) truncated to %d events", len(got))
	}
	if got := truncateEvents(mkEvents(4), 1<<20); len(got) != 4 {
		t.Errorf("roomy cap truncated to %d events", len(got))
	}

	evs := mkEvents(50)
	got := truncateEvents(evs, 400)
	if len(got) >= len(evs) {
		t.Fatalf("tight cap kept all %d events", len(got))
	}
	if got[0].Name != wire.EventLogTruncated {
		t.Fatalf("first event = %q, want the %s marker", got[0].Name, wire.EventLogTruncated)
	}
	var marker struct {
		Dropped int `json:"dropped"`
	}
	if err := json.Unmarshal(got[0].Data, &marker); err != nil || marker.Dropped == 0 {
		t.Errorf("marker data = %s (%v), want a positive dropped count", got[0].Data, err)
	}
	if marker.Dropped+len(got)-1 != len(evs) {
		t.Errorf("dropped %d + kept %d != original %d", marker.Dropped, len(got)-1, len(evs))
	}
	if got[len(got)-1].Name != wire.EventResult {
		t.Errorf("terminal event did not survive truncation")
	}

	// Even a cap smaller than any single event keeps the terminal event.
	got = truncateEvents(mkEvents(3), 1)
	if got[len(got)-1].Name != wire.EventResult {
		t.Errorf("pathological cap lost the terminal event")
	}
}

// TestJournalTruncatesEventLogAcrossRestart runs a job under a tight event
// cap: the live stream stays complete, but the journalled replay a restarted
// server serves opens with a log_truncated marker and still ends with the
// full terminal result.
func TestJournalTruncatesEventLogAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, client1, stop1 := bootServer(t, Config{MaxConcurrent: 1, JobDir: dir, MaxEventLogBytes: 300})
	first, err := client1.Learn(context.Background(), serveProblem(t), serveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	jobID := findOnlyJobID(t, s1)
	live := streamFrom(t, client1.BaseURL, jobID, "")
	if live[0].Name == wire.EventLogTruncated {
		t.Fatal("live stream was truncated; only restart replays may be")
	}
	stop1()

	_, client2, stop2 := bootServer(t, Config{MaxConcurrent: 1, JobDir: dir})
	defer stop2()
	replay := streamFrom(t, client2.BaseURL, jobID, "")
	if len(replay) == 0 || replay[0].Name != wire.EventLogTruncated {
		t.Fatalf("restart replay does not open with the %s marker (got %d events)",
			wire.EventLogTruncated, len(replay))
	}
	if len(replay) >= len(live) {
		t.Errorf("replay kept %d events of a %d-event log despite the cap", len(replay), len(live))
	}
	var marker struct {
		Dropped int `json:"dropped"`
	}
	if err := json.Unmarshal(replay[0].Data, &marker); err != nil || marker.Dropped == 0 {
		t.Errorf("marker data = %s (%v)", replay[0].Data, err)
	}
	if marker.Dropped+len(replay)-1 != len(live) {
		t.Errorf("dropped %d + replayed %d != live log %d", marker.Dropped, len(replay)-1, len(live))
	}
	last := replay[len(replay)-1]
	if last.Name != wire.EventResult {
		t.Fatalf("truncated replay ends with %q, want the terminal result", last.Name)
	}
	var res wire.Result
	if err := json.Unmarshal(last.Data, &res); err != nil || res.Definition != first.Definition {
		t.Errorf("truncated replay's terminal result differs from the original (%v)", err)
	}
}

// TestResultCacheServesIdenticalResubmission pins the result cache contract:
// a resubmitted bit-identical job completes with a byte-identical definition
// without running the engine, the hit is counted and surfaced as a stream
// event, and no-cache forces a fresh run.
func TestResultCacheServesIdenticalResubmission(t *testing.T) {
	s, client := newTestServer(t, Config{MaxConcurrent: 1})
	p := serveProblem(t)

	first, err := client.Learn(context.Background(), p, serveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}

	var sawHit bool
	second, err := client.Learn(context.Background(), p, serveOptions(), func(e dlearn.Event) {
		if _, ok := e.(dlearn.ResultCacheHit); ok {
			sawHit = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Definition != first.Definition {
		t.Errorf("cached definition differs:\n%s\nvs\n%s", second.Definition, first.Definition)
	}
	if !sawHit {
		t.Error("second run's stream carried no result_cache_hit event")
	}
	st := s.Stats()
	if st.ResultCacheHits != 1 || st.ResultCacheEntries != 1 || st.ResultCacheBytes <= 0 {
		t.Errorf("cache stats after hit = %+v", st)
	}

	// Different options must miss: a changed seed is a different run.
	opts := serveOptions()
	opts.Seed = 99
	if _, err := client.Learn(context.Background(), p, opts, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ResultCacheHits; got != 1 {
		t.Errorf("different-seed job hit the cache (hits = %d)", got)
	}

	// no-cache bypasses the read path entirely.
	opts = serveOptions()
	opts.NoCache = true
	third, err := client.Learn(context.Background(), p, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ResultCacheHits; got != 1 {
		t.Errorf("no-cache job hit the cache (hits = %d)", got)
	}
	if third.Definition != first.Definition {
		t.Errorf("no-cache rerun learned a different definition")
	}
	if third.Report.DurationSeconds <= 0 {
		t.Errorf("no-cache rerun reports no engine time; it was served from cache")
	}
}

// TestResultCacheSurvivesRestart completes a job on a journalled server, then
// resubmits the identical problem to a restarted server: the cache must be
// repopulated from the journal and serve the hit.
func TestResultCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	_, client1, stop1 := bootServer(t, Config{MaxConcurrent: 1, JobDir: dir})
	p := serveProblem(t)
	first, err := client1.Learn(context.Background(), p, serveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stop1()

	s2, client2, stop2 := bootServer(t, Config{MaxConcurrent: 1, JobDir: dir})
	defer stop2()
	second, err := client2.Learn(context.Background(), p, serveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Definition != first.Definition {
		t.Errorf("post-restart cached definition differs")
	}
	if st := s2.Stats(); st.ResultCacheHits != 1 {
		t.Errorf("post-restart stats = %+v, want 1 result cache hit", st)
	}
}

// TestResultCacheLRUEviction exercises the byte-cap sweep directly: oldest
// entries fall out first, recency is refreshed by get, and the most recently
// used entry survives even when it alone exceeds the cap.
func TestResultCacheLRUEviction(t *testing.T) {
	res := func(pad int) wire.Result {
		return wire.Result{Target: "t", Definition: strings.Repeat("x", pad)}
	}
	data, err := json.Marshal(res(0))
	if err != nil {
		t.Fatal(err)
	}
	// Cap the cache at three bare results; each put below is one unit.
	c := newResultCache(3 * int64(len(data)))
	keys := make([]persist.Key, 4)
	for i := range keys {
		keys[i][0] = byte(i + 1)
	}
	c.put(keys[0], res(0))
	c.put(keys[1], res(0))
	c.put(keys[2], res(0))
	if _, _, ok := c.get(keys[0]); !ok {
		t.Fatal("entry 0 evicted below the cap")
	}
	// get refreshed key 0, so key 1 is now the oldest and must go first.
	c.put(keys[3], res(0))
	if _, _, ok := c.get(keys[1]); ok {
		t.Error("LRU entry survived the sweep")
	}
	for _, i := range []int{0, 2, 3} {
		if _, _, ok := c.get(keys[i]); !ok {
			t.Errorf("entry %d evicted, want retained", i)
		}
	}

	// One oversized entry still caches: the most recent entry always survives.
	c.put(keys[1], res(64<<10))
	if _, _, ok := c.get(keys[1]); !ok {
		t.Error("oversized entry did not cache; the most recent entry must always survive")
	}
	if bytes, entries := c.stats(); entries < 1 || bytes <= 0 {
		t.Errorf("stats after oversized put = %d bytes, %d entries", bytes, entries)
	}
}

// TestResultCacheDisabled verifies a negative cap turns the cache off end to
// end rather than defaulting.
func TestResultCacheDisabled(t *testing.T) {
	s, client := newTestServer(t, Config{MaxConcurrent: 1, ResultCacheMaxBytes: -1})
	p := serveProblem(t)
	for i := 0; i < 2; i++ {
		if _, err := client.Learn(context.Background(), p, serveOptions(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.ResultCacheHits != 0 || st.ResultCacheEntries != 0 {
		t.Errorf("disabled cache still served hits: %+v", st)
	}
}

// readJobRecord decodes a job's journal record from dir.
func readJobRecord(t *testing.T, dir, id string) journalRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, id+jobFileExt))
	if err != nil {
		t.Fatalf("reading journal record: %v", err)
	}
	var rec journalRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("decoding journal record: %v", err)
	}
	return rec
}

// TestJournalTerminalRecordBeforeClientSees pins the order of a terminal
// transition: the journal record already holds the terminal state the
// moment a client observes it, for every terminal kind — no wait, no poll.
// A crash right after a client saw a job finish must not leave a record
// that re-runs it.
func TestJournalTerminalRecordBeforeClientSees(t *testing.T) {
	p := serveProblem(t)

	t.Run("done", func(t *testing.T) {
		dir := t.TempDir()
		s, client := newTestServer(t, Config{MaxConcurrent: 1, JobDir: dir})
		if _, err := client.Learn(context.Background(), p, serveOptions(), nil); err != nil {
			t.Fatal(err)
		}
		rec := readJobRecord(t, dir, findOnlyJobID(t, s))
		if rec.State != wire.StateDone || rec.Result == nil || rec.FinishedAt.IsZero() {
			t.Errorf("record state=%q result=%v finished=%v, want done with the result", rec.State, rec.Result != nil, rec.FinishedAt)
		}
	})

	t.Run("failed", func(t *testing.T) {
		dir := t.TempDir()
		s, client := newTestServer(t, Config{MaxConcurrent: 1, JobDir: dir, DefaultTimeout: time.Nanosecond})
		_, err := client.Learn(context.Background(), p, serveOptions(), nil)
		var remoteErr *RemoteJobError
		if !errors.As(err, &remoteErr) || remoteErr.State != wire.StateFailed {
			t.Fatalf("expired job returned %v, want a failed RemoteJobError", err)
		}
		rec := readJobRecord(t, dir, findOnlyJobID(t, s))
		if rec.State != wire.StateFailed || !strings.Contains(rec.Error, "deadline exceeded") {
			t.Errorf("record state=%q error=%q, want failed on its deadline", rec.State, rec.Error)
		}
	})

	t.Run("panicked", func(t *testing.T) {
		dir := t.TempDir()
		s, client := newTestServer(t, Config{
			MaxConcurrent: 1,
			JobDir:        dir,
			Faults:        chaosSchedule(t, "worker.run:hit=1:panic=boom", 1),
		})
		if _, err := client.Learn(context.Background(), p, serveOptions(), nil); err == nil {
			t.Fatal("panicking job succeeded")
		}
		rec := readJobRecord(t, dir, findOnlyJobID(t, s))
		if rec.State != wire.StateFailed || !strings.Contains(rec.Error, "job panicked") {
			t.Errorf("record state=%q error=%q, want failed with the panic", rec.State, truncateForLog(rec.Error))
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		dir := t.TempDir()
		g := newGate()
		_, client := newTestServer(t, Config{
			MaxQueued:     4,
			MaxConcurrent: 1,
			JobDir:        dir,
			EngineOptions: []dlearn.Option{dlearn.WithObserver(g)},
		})
		wp := wire.EncodeProblem(p)
		wp.Options = serveOptions()
		running, err := client.Submit(context.Background(), wp)
		if err != nil {
			t.Fatal(err)
		}
		g.waitEntered(t)
		queued, err := client.Submit(context.Background(), wp)
		if err != nil {
			t.Fatal(err)
		}

		// A queued job is cancelled by the DELETE itself.
		st, err := client.Cancel(context.Background(), queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != wire.StateCancelled {
			t.Fatalf("queued job state after cancel = %q", st.State)
		}
		if rec := readJobRecord(t, dir, queued.ID); rec.State != wire.StateCancelled {
			t.Errorf("queued job's record state=%q right after the DELETE, want cancelled", rec.State)
		}

		// A running job is cancelled once its engine unwinds; the client sees
		// that as the end of its event stream.
		if _, err := client.Cancel(context.Background(), running.ID); err != nil {
			t.Fatal(err)
		}
		close(g.release)
		if err := client.StreamFrom(context.Background(), running.ID, "", func(SSEEvent) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if rec := readJobRecord(t, dir, running.ID); rec.State != wire.StateCancelled {
			t.Errorf("running job's record state=%q when its stream ended, want cancelled", rec.State)
		}
	})
}
