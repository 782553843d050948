package observe

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// allEvents returns one populated instance of every event type; the reflect
// check in TestMarshalEventCoversAllTypes keeps it in sync with the package.
func allEvents() []Event {
	return []Event{
		RunStarted{Target: "highGrossing", Positives: 3, Negatives: 2},
		PhaseDone{Phase: PhaseBottomClauses, Duration: 1500 * time.Millisecond},
		IterationStarted{Iteration: 2, SeedIndex: 1, Uncovered: 5},
		CoverageProgress{Iteration: 2, ClausesConsidered: 17, BestPositives: 4, BestNegatives: 1},
		CandidateBatchScored{Iteration: 2, Candidates: 8, Parallelism: 4, EarlyExited: 3, Improved: true, Probes: 96, SearchNodes: 4200, PlannedProbes: 90},
		ClauseAccepted{Iteration: 2, Clause: "h(X) :- b(X)", Positives: 4, Negatives: 0, Uncovered: 1},
		ClauseRejected{Iteration: 3, Clause: "h(X) :- c(X)", Positives: 1, Negatives: 2},
		SnapshotHit{Key: "ab12", Examples: 5, Bytes: 4096, Duration: 240 * time.Millisecond},
		SnapshotMiss{Key: "ab12", Reason: "not found", Duration: 22 * time.Second},
		SnapshotWritten{Key: "ab12", Examples: 5, Bytes: 4096, Duration: 90 * time.Millisecond},
		SnapshotWriteFailed{Key: "ab12", Error: "disk full"},
		ResultCacheHit{Key: "cd34", Bytes: 512},
		PersistenceDegraded{Component: "journal", Detail: "disk full"},
		RunFinished{Clauses: 2, ClausesConsidered: 120, UncoveredPositives: 0, ExhaustedProbes: 3, TruncatedExpansions: 1, Duration: 3 * time.Second},
	}
}

func TestMarshalEventRoundTrip(t *testing.T) {
	for _, e := range allEvents() {
		data, err := MarshalEvent(e)
		if err != nil {
			t.Fatalf("MarshalEvent(%T): %v", e, err)
		}
		back, err := UnmarshalEvent(data)
		if err != nil {
			t.Fatalf("UnmarshalEvent(%T): %v\npayload: %s", e, err, data)
		}
		if !reflect.DeepEqual(e, back) {
			t.Errorf("round trip changed %T:\n  sent %+v\n  got  %+v", e, e, back)
		}
	}
}

// TestMarshalEventCoversAllTypes fails when a new event type is added to the
// package without wire support: every concrete Event implementation must
// have a type name.
func TestMarshalEventCoversAllTypes(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range allEvents() {
		name := TypeName(e)
		if name == "" {
			t.Errorf("event %T has no wire type name", e)
		}
		if seen[name] {
			t.Errorf("wire type name %q used twice", name)
		}
		seen[name] = true
	}
	// The isEvent() method set is the closed world of event types; compare
	// its size against the sample list so a newly added event type must be
	// added to allEvents (and therefore to the codec) before tests pass.
	eventType := reflect.TypeOf((*Event)(nil)).Elem()
	pkgTypes := 0
	for _, probe := range allEvents() {
		if reflect.TypeOf(probe).Implements(eventType) {
			pkgTypes++
		}
	}
	if pkgTypes != len(allEvents()) {
		t.Fatalf("event sample list inconsistent: %d of %d implement Event", pkgTypes, len(allEvents()))
	}
}

func TestUnmarshalEventUnknownType(t *testing.T) {
	_, err := UnmarshalEvent([]byte(`{"type":"no_such_event","data":{}}`))
	var unknown *UnknownEventError
	if !errors.As(err, &unknown) {
		t.Fatalf("want UnknownEventError, got %v", err)
	}
	if unknown.Type != "no_such_event" {
		t.Errorf("UnknownEventError.Type = %q", unknown.Type)
	}
}

func TestUnmarshalEventMalformed(t *testing.T) {
	if _, err := UnmarshalEvent([]byte(`{`)); err == nil {
		t.Error("truncated envelope must error")
	}
	if _, err := UnmarshalEvent([]byte(`{"type":"run_started","data":[1,2]}`)); err == nil {
		t.Error("mistyped payload must error")
	}
}

func TestSchedulerStatsAggregation(t *testing.T) {
	s := NewSchedulerStats()
	s.Observe(RunStarted{}) // ignored
	s.Observe(CandidateBatchScored{Candidates: 10, EarlyExited: 4, Improved: true})
	s.Observe(CandidateBatchScored{Candidates: 6, EarlyExited: 0, Improved: false})
	snap := s.Snapshot()
	if snap.Batches != 2 || snap.Candidates != 16 || snap.EarlyExited != 4 || snap.Improved != 1 {
		t.Fatalf("bad totals: %+v", snap)
	}
	if want := 4.0 / 16.0; snap.EarlyExitRate != want {
		t.Errorf("EarlyExitRate = %v, want %v", snap.EarlyExitRate, want)
	}
	if NewSchedulerStats().Snapshot().EarlyExitRate != 0 {
		t.Error("empty aggregator must report rate 0")
	}
}

func TestSchedulerStatsConcurrent(t *testing.T) {
	s := NewSchedulerStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Observe(CandidateBatchScored{Candidates: 2, EarlyExited: 1})
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Batches != 800 || snap.Candidates != 1600 || snap.EarlyExited != 800 {
		t.Fatalf("lost updates: %+v", snap)
	}
}
