package coverage

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dlearn/internal/logic"
	"dlearn/internal/persist"
)

func snapshotTestKey() persist.Key {
	var k persist.Key
	k[0] = 0xAB
	return k
}

func snapshotGrounds(n int) []logic.Clause {
	out := make([]logic.Clause, n)
	for i := range out {
		genre := "comedy"
		if i%2 == 1 {
			genre = "drama"
		}
		out[i] = simpleGround(genre)
	}
	return out
}

// TestLoadOrPrepareMissThenHit drives the full store round trip: the first
// call misses and writes the snapshot, the second is served from it, and
// the restored examples score exactly like the fresh ones.
func TestLoadOrPrepareMissThenHit(t *testing.T) {
	ctx := context.Background()
	store := persist.NewDirStore(t.TempDir())
	key := snapshotTestKey()
	posG, negG := snapshotGrounds(6), snapshotGrounds(4)

	e1 := NewEvaluator(Options{Threads: 2})
	pos1, neg1, out1, err := e1.LoadOrPrepareExamples(ctx, store, key, posG, negG)
	if err != nil {
		t.Fatalf("first LoadOrPrepare: %v", err)
	}
	if out1.Hit {
		t.Fatal("first call hit an empty store")
	}
	if out1.Reason != "not found" {
		t.Fatalf("first miss reason = %q, want %q", out1.Reason, "not found")
	}
	if out1.WriteErr != nil {
		t.Fatalf("write-back failed: %v", out1.WriteErr)
	}
	if out1.Bytes == 0 {
		t.Fatal("write-back reported zero bytes")
	}

	e2 := NewEvaluator(Options{Threads: 2})
	pos2, neg2, out2, err := e2.LoadOrPrepareExamples(ctx, store, key, posG, negG)
	if err != nil {
		t.Fatalf("second LoadOrPrepare: %v", err)
	}
	if !out2.Hit {
		t.Fatalf("second call missed (%s)", out2.Reason)
	}
	if len(pos2) != len(pos1) || len(neg2) != len(neg1) {
		t.Fatalf("restored %d/%d examples, want %d/%d", len(pos2), len(neg2), len(pos1), len(neg1))
	}

	c := simpleClause()
	s1 := fullScore(e1, c, pos1, neg1)
	s2 := fullScore(e2, c, pos2, neg2)
	if s1 != s2 {
		t.Fatalf("restored examples score %+v, fresh score %+v", s2, s1)
	}
}

// TestLoadOrPrepareStaleExamples asserts the defense in depth behind the
// fingerprint: even when a snapshot exists under the requested key, stored
// ground clauses that do not match the requested ones force a re-prepare.
func TestLoadOrPrepareStaleExamples(t *testing.T) {
	ctx := context.Background()
	store := persist.NewDirStore(t.TempDir())
	key := snapshotTestKey()
	e := NewEvaluator(Options{Threads: 2})
	if _, _, _, err := e.LoadOrPrepareExamples(ctx, store, key, snapshotGrounds(4), nil); err != nil {
		t.Fatalf("seeding store: %v", err)
	}

	// Same key, different ground clauses (as a mis-keyed caller would do).
	changed := snapshotGrounds(4)
	changed[2] = simpleGround("western")
	_, _, out, err := e.LoadOrPrepareExamples(ctx, store, key, changed, nil)
	if err != nil {
		t.Fatalf("LoadOrPrepare with changed grounds: %v", err)
	}
	if out.Hit {
		t.Fatal("changed ground clauses served from the snapshot")
	}
	if out.Reason != "stale examples" {
		t.Fatalf("miss reason = %q, want %q", out.Reason, "stale examples")
	}
	if out.PrepareTime == 0 {
		t.Fatal("stale snapshot did not trigger a re-prepare")
	}

	// A different example count is also stale.
	_, _, out, err = e.LoadOrPrepareExamples(ctx, store, key, snapshotGrounds(3), nil)
	if err != nil {
		t.Fatalf("LoadOrPrepare with fewer grounds: %v", err)
	}
	if out.Hit || out.Reason != "stale examples" {
		t.Fatalf("count mismatch: hit=%v reason=%q", out.Hit, out.Reason)
	}
}

// TestLoadOrPrepareCorruptSnapshot proves graceful fallback: a truncated or
// corrupted snapshot file is rejected by the codec and preparation runs
// fresh, repairing the store for the next run.
func TestLoadOrPrepareCorruptSnapshot(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store := persist.NewDirStore(dir)
	key := snapshotTestKey()
	posG := snapshotGrounds(4)
	e := NewEvaluator(Options{Threads: 2})
	if _, _, _, err := e.LoadOrPrepareExamples(ctx, store, key, posG, nil); err != nil {
		t.Fatalf("seeding store: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("snapshot dir: entries=%d err=%v", len(entries), err)
	}
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	// Truncate the file mid-payload.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncating snapshot: %v", err)
	}

	pos, _, out, err := e.LoadOrPrepareExamples(ctx, store, key, posG, nil)
	if err != nil {
		t.Fatalf("LoadOrPrepare over corrupt snapshot: %v", err)
	}
	if out.Hit {
		t.Fatal("corrupt snapshot reported as a hit")
	}
	if len(pos) != len(posG) {
		t.Fatalf("fallback prepared %d examples, want %d", len(pos), len(posG))
	}
	// The write-back replaced the corrupt file; the next call hits again.
	_, _, out, err = e.LoadOrPrepareExamples(ctx, store, key, posG, nil)
	if err != nil {
		t.Fatalf("LoadOrPrepare after repair: %v", err)
	}
	if !out.Hit {
		t.Fatalf("store not repaired after corrupt-snapshot fallback (%s)", out.Reason)
	}
}

// TestLoadOrPrepareNilStore pins the no-store path: plain preparation, no
// hit, no write.
func TestLoadOrPrepareNilStore(t *testing.T) {
	e := NewEvaluator(Options{Threads: 2})
	pos, neg, out, err := e.LoadOrPrepareExamples(context.Background(), nil, persist.Key{}, snapshotGrounds(2), snapshotGrounds(1))
	if err != nil {
		t.Fatalf("LoadOrPrepare: %v", err)
	}
	if out.Hit || out.Reason != "no store" || out.Bytes != 0 {
		t.Fatalf("nil store outcome = %+v", out)
	}
	if len(pos) != 2 || len(neg) != 1 {
		t.Fatalf("prepared %d/%d examples, want 2/1", len(pos), len(neg))
	}
}

// TestLoadOrPrepareCancelled propagates the preparation error.
func TestLoadOrPrepareCancelled(t *testing.T) {
	e := NewEvaluator(Options{Threads: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := e.LoadOrPrepareExamples(ctx, nil, persist.Key{}, snapshotGrounds(2), nil)
	if err != context.Canceled {
		t.Fatalf("cancelled LoadOrPrepare error = %v, want context.Canceled", err)
	}
}

// TestLoadOrPrepareOldVersionSnapshot proves the codec-version upgrade path
// end to end: a snapshot in the previous format version under the right key
// is cleanly rejected, preparation runs fresh, and the write-back upgrades
// the stored snapshot so the next call hits.
func TestLoadOrPrepareOldVersionSnapshot(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store := persist.NewDirStore(dir)
	key := snapshotTestKey()
	posG := snapshotGrounds(4)
	e := NewEvaluator(Options{Threads: 2})
	if _, _, _, err := e.LoadOrPrepareExamples(ctx, store, key, posG, nil); err != nil {
		t.Fatalf("seeding store: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("snapshot dir: entries=%d err=%v", len(entries), err)
	}
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	// Rewrite the header to the previous format version with a valid
	// checksum, as a file written by an older binary would carry.
	old := data[: len(data)-4 : len(data)-4]
	old[6], old[7] = 0, 1
	old = binary.BigEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatalf("writing old-version snapshot: %v", err)
	}

	pos, _, out, err := e.LoadOrPrepareExamples(ctx, store, key, posG, nil)
	if err != nil {
		t.Fatalf("LoadOrPrepare over old-version snapshot: %v", err)
	}
	if out.Hit {
		t.Fatal("old-version snapshot reported as a hit")
	}
	if len(pos) != len(posG) {
		t.Fatalf("fallback prepared %d examples, want %d", len(pos), len(posG))
	}
	// The write-back upgraded the file in place; the next call hits.
	_, _, out, err = e.LoadOrPrepareExamples(ctx, store, key, posG, nil)
	if err != nil {
		t.Fatalf("LoadOrPrepare after upgrade: %v", err)
	}
	if !out.Hit {
		t.Fatalf("store not upgraded after old-version fallback (%s)", out.Reason)
	}
}
