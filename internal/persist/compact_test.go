package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCompactProtectsOnTimestampTie checks the sweep Save runs after a write
// on a filesystem whose timestamps tie: the just-written snapshot and a stale
// sibling share an mtime, and the sibling's name sorts after the protected
// one. The sweep must remove the sibling and bring the store under its cap,
// not spare it as the "newest" snapshot while also keeping the protected one.
func TestCompactProtectsOnTimestampTie(t *testing.T) {
	dir := t.TempDir()
	s := NewDirStore(dir).SetMaxBytes(6000)
	fresh := filepath.Join(dir, strings.Repeat("1", 64)+snapshotExt)
	stale := filepath.Join(dir, strings.Repeat("f", 64)+snapshotExt)
	mt := time.Now().Add(-time.Minute).Truncate(time.Second)
	for _, path := range []string{fresh, stale} {
		if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := s.compact(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 || stats.Remaining != 1 || stats.RemainingBytes != 4096 {
		t.Errorf("compact stats = %+v, want 1 removed and 4096 bytes remaining", stats)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("protected snapshot was swept: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale sibling survived the sweep: %v", err)
	}
}
