package persist_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dlearn/internal/bottomclause"
	"dlearn/internal/constraints"
	"dlearn/internal/persist"
	"dlearn/internal/relation"
)

func testKey(b byte) persist.Key {
	var k persist.Key
	for i := range k {
		k[i] = b
	}
	return k
}

func TestDirStoreSaveLoad(t *testing.T) {
	store := persist.NewDirStore(filepath.Join(t.TempDir(), "snaps"))
	key := testKey(1)
	if _, err := store.Load(key); err != persist.ErrNotFound {
		t.Fatalf("Load on empty store = %v, want ErrNotFound", err)
	}
	want := []byte("payload")
	if err := store.Save(key, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := store.Load(key)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Load = %q, want %q", got, want)
	}
	// Overwrite replaces the value.
	want2 := []byte("payload-v2")
	if err := store.Save(key, want2); err != nil {
		t.Fatalf("Save overwrite: %v", err)
	}
	if got, _ := store.Load(key); !bytes.Equal(got, want2) {
		t.Fatalf("Load after overwrite = %q, want %q", got, want2)
	}
	// Distinct keys do not collide.
	if _, err := store.Load(testKey(2)); err != persist.ErrNotFound {
		t.Fatalf("Load of unrelated key = %v, want ErrNotFound", err)
	}
}

func TestDirStoreLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	store := persist.NewDirStore(dir)
	if err := store.Save(testKey(3), []byte("x")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("store dir has %d entries %v, want 1", len(entries), names)
	}
}

// fpInputs builds a baseline FingerprintInputs over a small instance.
func fpInputs(t *testing.T) persist.FingerprintInputs {
	t.Helper()
	schema := relation.NewSchema()
	schema.MustAdd(relation.NewRelation("movies", relation.Attr("id", "imdb_id"), relation.Attr("title", "imdb_title")))
	db := relation.NewInstance(schema)
	db.MustInsert("movies", "m1", "Superbad")
	db.MustInsert("movies", "m2", "Election")
	target := relation.NewRelation("highGrossing", relation.Attr("title", "bom_title"))
	cfg := bottomclause.DefaultConfig()
	cfg.Seed = 1
	return persist.FingerprintInputs{
		Instance:     db,
		Target:       target,
		MDs:          []constraints.MD{constraints.SimpleMD("md1", "highGrossing", "title", "movies", "title")},
		CFDs:         []constraints.CFD{constraints.FD("fd1", "movies", []string{"id"}, "title")},
		Pos:          []relation.Tuple{relation.NewTuple("highGrossing", "Superbad")},
		Neg:          []relation.Tuple{relation.NewTuple("highGrossing", "Election")},
		BottomClause: cfg,
		Noise:        0.3,
	}
}

// TestFingerprintStability: equal inputs, independently constructed, hash to
// the same key — otherwise a restarted process could never hit its own
// snapshots.
func TestFingerprintStability(t *testing.T) {
	if fpInputs(t).Key() != fpInputs(t).Key() {
		t.Fatal("identical inputs produced different keys")
	}
}

// TestFingerprintSensitivity: every input that can change the prepared
// examples must change the key. This is the property that makes a stale
// database or constraint set provably miss the cache.
func TestFingerprintSensitivity(t *testing.T) {
	base := fpInputs(t).Key()
	mutations := map[string]func(f *persist.FingerprintInputs){
		"tuple inserted": func(f *persist.FingerprintInputs) {
			f.Instance.MustInsert("movies", "m3", "Clueless")
		},
		"tuple value changed": func(f *persist.FingerprintInputs) {
			f.Instance.ReplaceValue("movies", 1, "Superbad", "Superbad (2007)")
		},
		"CFD added": func(f *persist.FingerprintInputs) {
			f.CFDs = append(f.CFDs, constraints.FD("fd2", "movies", []string{"title"}, "id"))
		},
		"CFD pattern changed": func(f *persist.FingerprintInputs) {
			f.CFDs[0] = constraints.NewCFD("fd1", "movies", []string{"id"}, "title", map[string]string{"id": "m1"})
		},
		"CFD removed": func(f *persist.FingerprintInputs) { f.CFDs = nil },
		"MD changed": func(f *persist.FingerprintInputs) {
			f.MDs[0] = constraints.SimpleMD("md1", "highGrossing", "title", "movies", "id")
		},
		"positive example added": func(f *persist.FingerprintInputs) {
			f.Pos = append(f.Pos, relation.NewTuple("highGrossing", "Clueless"))
		},
		"example order swapped": func(f *persist.FingerprintInputs) {
			f.Pos, f.Neg = f.Neg, f.Pos
		},
		"bottom-clause iterations":  func(f *persist.FingerprintInputs) { f.BottomClause.Iterations++ },
		"bottom-clause sample seed": func(f *persist.FingerprintInputs) { f.BottomClause.Seed++ },
		"similarity threshold":      func(f *persist.FingerprintInputs) { f.BottomClause.SimilarityThreshold += 0.1 },
		"CFDs disabled":             func(f *persist.FingerprintInputs) { f.BottomClause.UseCFDs = false },
		"subsumption budget":        func(f *persist.FingerprintInputs) { f.Subsumption.MaxNodes = 123 },
		"repair budget":             func(f *persist.FingerprintInputs) { f.Repair.MaxClauses = 3 },
		"noise tolerance":           func(f *persist.FingerprintInputs) { f.Noise = 0.1 },
	}
	for name, mutate := range mutations {
		f := fpInputs(t)
		mutate(&f)
		if f.Key() == base {
			t.Errorf("%s: key unchanged", name)
		}
	}
}

// TestDirStoreCompactLRU checks the size-capped sweep: the least-recently-
// used snapshots are removed until the store fits, and a Load refreshes a
// snapshot's recency so it survives a sweep that removes older siblings.
func TestDirStoreCompactLRU(t *testing.T) {
	dir := t.TempDir()
	store := persist.NewDirStore(dir)
	payload := bytes.Repeat([]byte("x"), 100)
	for b := byte(1); b <= 4; b++ {
		if err := store.Save(testKey(b), payload); err != nil {
			t.Fatalf("Save %d: %v", b, err)
		}
		// Stagger mtimes so LRU order is unambiguous on coarse filesystems.
		path := filepath.Join(dir, testKey(b).String()+".dlsnap")
		mt := time.Now().Add(-time.Hour * time.Duration(10-int(b)))
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 1 (the oldest) via Load: it must now outrank keys 2 and 3.
	if _, err := store.Load(testKey(1)); err != nil {
		t.Fatalf("Load: %v", err)
	}

	store.SetMaxBytes(250) // room for two 100-byte snapshots
	stats, err := store.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats.Removed != 2 || stats.Remaining != 2 {
		t.Fatalf("Compact stats = %+v, want 2 removed / 2 remaining", stats)
	}
	if stats.RemainingBytes != 200 || stats.RemovedBytes != 200 {
		t.Fatalf("Compact byte stats = %+v", stats)
	}
	for b, want := range map[byte]bool{1: true, 2: false, 3: false, 4: true} {
		_, err := store.Load(testKey(b))
		if got := err == nil; got != want {
			t.Errorf("after sweep, key %d present = %v (err %v), want %v", b, got, err, want)
		}
	}
}

// TestDirStoreSaveSweeps checks that a capped store sweeps automatically on
// Save and never removes the snapshot just written, even when it alone
// exceeds the cap.
func TestDirStoreSaveSweeps(t *testing.T) {
	dir := t.TempDir()
	store := persist.NewDirStore(dir).SetMaxBytes(150)
	old := testKey(7)
	if err := store.Save(old, bytes.Repeat([]byte("a"), 100)); err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(dir, old.String()+".dlsnap")
	mt := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(oldPath, mt, mt); err != nil {
		t.Fatal(err)
	}
	// The new snapshot alone busts the cap; the old one must be swept, the
	// new one kept.
	fresh := testKey(8)
	if err := store.Save(fresh, bytes.Repeat([]byte("b"), 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(old); err != persist.ErrNotFound {
		t.Errorf("old snapshot survived the Save sweep: %v", err)
	}
	if _, err := store.Load(fresh); err != nil {
		t.Errorf("fresh snapshot was swept: %v", err)
	}
	bytesTotal, files, err := store.Size()
	if err != nil || files != 1 || bytesTotal != 200 {
		t.Errorf("Size = (%d, %d, %v), want (200, 1, nil)", bytesTotal, files, err)
	}
}

// TestDirStoreCompactRemovesAgedTempFiles checks orphaned temp files from a
// crashed writer are swept once old, while young ones (possibly an in-flight
// Save) survive.
func TestDirStoreCompactRemovesAgedTempFiles(t *testing.T) {
	dir := t.TempDir()
	store := persist.NewDirStore(dir)
	if err := store.Save(testKey(9), []byte("keep")); err != nil {
		t.Fatal(err)
	}
	aged := filepath.Join(dir, testKey(5).String()+".tmp-orphan")
	if err := os.WriteFile(aged, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	mt := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(aged, mt, mt); err != nil {
		t.Fatal(err)
	}
	young := filepath.Join(dir, testKey(6).String()+".tmp-inflight")
	if err := os.WriteFile(young, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := os.Stat(aged); !os.IsNotExist(err) {
		t.Errorf("aged temp file survived Compact: %v", err)
	}
	if _, err := os.Stat(young); err != nil {
		t.Errorf("young temp file was removed: %v", err)
	}
	if _, err := store.Load(testKey(9)); err != nil {
		t.Errorf("snapshot removed by uncapped Compact: %v", err)
	}
}

// TestDirStoreSizeEmpty checks Size on a store whose directory was never
// created.
func TestDirStoreSizeEmpty(t *testing.T) {
	store := persist.NewDirStore(filepath.Join(t.TempDir(), "never-created"))
	bytesTotal, files, err := store.Size()
	if err != nil || bytesTotal != 0 || files != 0 {
		t.Errorf("Size of missing dir = (%d, %d, %v), want zeros", bytesTotal, files, err)
	}
	if stats, err := store.Compact(); err != nil || stats != (persist.CompactStats{}) {
		t.Errorf("Compact of missing dir = (%+v, %v)", stats, err)
	}
}

// TestFingerprintInternerInvariance: the fingerprint hashes the *logical*
// content of the instance — relation names, row order, string values — not
// the interned representation. Two instances that converge to the same
// tuples through different mutation histories (and therefore different
// interner tables and ID assignments) must produce the same snapshot key,
// and hence the same result key, so a repaired-then-rebuilt database still
// hits its warm snapshots.
func TestFingerprintInternerInvariance(t *testing.T) {
	base := fpInputs(t)

	// Build the same logical instance along a different path: insert scratch
	// values first (polluting the interner with extra IDs), then rewrite them
	// to the target values with both mutation primitives.
	schema := base.Instance.Schema()
	db := relation.NewInstance(schema)
	db.MustInsert("movies", "m1", "scratch-title")
	db.MustInsert("movies", "tmp", "Election")
	if n := db.ReplaceValue("movies", 1, "scratch-title", "Superbad"); n != 1 {
		t.Fatalf("ReplaceValue rewrote %d fields, want 1", n)
	}
	if err := db.SetValueAt("movies", 1, 0, "m2"); err != nil {
		t.Fatalf("SetValueAt: %v", err)
	}
	for i, want := range []relation.Tuple{
		relation.NewTuple("movies", "m1", "Superbad"),
		relation.NewTuple("movies", "m2", "Election"),
	} {
		if got := db.Tuples("movies")[i]; !got.Equal(want) {
			t.Fatalf("rebuilt tuple %d = %v, want %v", i, got, want)
		}
	}
	if db.Interner().Len() == base.Instance.Interner().Len() {
		t.Fatal("rebuilt instance should have extra interned values for the test to mean anything")
	}

	rebuilt := base
	rebuilt.Instance = db
	if base.Key() != rebuilt.Key() {
		t.Fatal("snapshot keys differ across interner histories of the same logical instance")
	}

	resultOf := func(f persist.FingerprintInputs) persist.Key {
		return persist.ResultFingerprintInputs{Snapshot: f.Key(), Seed: 7, MaxClauses: 4}.Key()
	}
	if resultOf(base) != resultOf(rebuilt) {
		t.Fatal("result keys differ across interner histories of the same logical instance")
	}
}
