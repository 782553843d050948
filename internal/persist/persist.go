// Package persist stores prepared coverage examples across runs. Preparing
// the ground bottom clauses of a training set — θ-subsumption preprocessing
// plus the CFD/repair expansions of Section 4.3 — dominates every cold start
// (tens of seconds against ~2.5s of actual scoring on the coverage bench),
// yet the result depends only on the database instance, the declarative
// constraints and the preparation options. This package makes that
// observation actionable with three pieces:
//
//   - A content-addressed Key (fingerprint.go): a SHA-256 over the relational
//     database, the MD and CFD sets, the bottom-clause configuration, the
//     noise option, the coverage budgets and the training examples. Any
//     mutation of the inputs changes the key, so a stale database or a
//     changed constraint set can never serve a wrong cache hit.
//   - A versioned binary codec (codec.go) for snapshots of prepared examples:
//     the ground bottom clause plus the frozen subsumption preparations
//     (equality closures, repair connectivity) and every CFD/repair
//     expansion. Decoding interns terms and literals so identical structures
//     are shared across the restored preparations.
//   - A Store interface with a filesystem implementation (DirStore) that
//     writes one snapshot file per key.
//
// The coverage evaluator's LoadOrPrepareExamples ties the pieces together;
// any load, decode or validation failure degrades gracefully to a fresh
// preparation.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dlearn/internal/fault"
)

// ErrNotFound is returned by Store.Load when no snapshot exists for a key.
var ErrNotFound = errors.New("persist: snapshot not found")

// Store is a content-addressed snapshot store. Implementations must be safe
// for concurrent use; keys are collision-resistant content hashes, so a
// value stored under a key never needs invalidation.
type Store interface {
	// Load returns the snapshot stored under the key, or ErrNotFound.
	Load(key Key) ([]byte, error)
	// Save stores the snapshot under the key, replacing any previous value.
	Save(key Key, data []byte) error
}

// snapshotExt is the file extension of DirStore snapshot files.
const snapshotExt = ".dlsnap"

// tmpMaxAge is how old an orphaned temp file (left by a crashed writer) must
// be before Compact removes it. Young temp files may belong to an in-flight
// Save and are left alone.
const tmpMaxAge = time.Hour

// DirStore is a filesystem-backed Store: one file per key, named by the
// key's hex form, inside a single directory. The directory is created on
// first Save. Writes are atomic (temp file plus rename), so a crashed or
// concurrent writer can leave at worst a stale temp file, never a torn
// snapshot under a final name.
//
// Snapshots are content-addressed, so one blob per fingerprint accumulates
// forever as inputs evolve — every edited tuple or tweaked budget mints a
// new key and orphans the old file. SetMaxBytes caps the directory: Save
// sweeps least-recently-used snapshots (Load refreshes a snapshot's mtime,
// so recently served keys survive) until the store fits, and Compact runs
// the same sweep on demand.
type DirStore struct {
	dir      string
	maxBytes int64
	faults   *fault.Injector
}

// NewDirStore returns a store rooted at dir. The directory does not need to
// exist yet.
func NewDirStore(dir string) *DirStore { return &DirStore{dir: dir} }

// Dir returns the directory the store writes to.
func (s *DirStore) Dir() string { return s.dir }

// SetMaxBytes caps the store's total snapshot size: after every Save
// (and on Compact) least-recently-used snapshots are removed until the
// directory holds at most n bytes. Zero (the default) means unbounded.
// It returns the store for chaining.
func (s *DirStore) SetMaxBytes(n int64) *DirStore {
	s.maxBytes = n
	return s
}

// MaxBytes returns the configured size cap; zero means unbounded.
func (s *DirStore) MaxBytes() int64 { return s.maxBytes }

// SetFaults installs a fault-injection schedule on the store's I/O seams
// (injection points "persist.load" and "persist.save"). Nil — the default —
// disables injection entirely. It returns the store for chaining. Test hook;
// production stores never set it.
func (s *DirStore) SetFaults(inj *fault.Injector) *DirStore {
	s.faults = inj
	return s
}

func (s *DirStore) path(key Key) string {
	return filepath.Join(s.dir, key.String()+snapshotExt)
}

// Load reads the snapshot file for the key. A hit refreshes the file's
// modification time (best effort), so the size-capped sweep removes
// least-recently-used snapshots rather than least-recently-written ones.
func (s *DirStore) Load(key Key) ([]byte, error) {
	if err := s.faults.Err("persist.load"); err != nil {
		return nil, err
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("persist: loading snapshot %s: %w", key, err)
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return data, nil
}

// Save writes the snapshot file for the key atomically.
func (s *DirStore) Save(key Key, data []byte) error {
	if f := s.faults.Fire("persist.save"); f != nil {
		if f.Kind == fault.KindTorn {
			// A torn write: the truncated payload lands under the final name —
			// exactly what a crash between write and fsync can leave behind on
			// filesystems without atomic rename durability. The codec's
			// checksum catches it at the next Load as a graceful miss.
			_ = os.MkdirAll(s.dir, 0o755)
			_ = os.WriteFile(s.path(key), f.Torn(data), 0o644)
		}
		return f.Err()
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("persist: creating snapshot dir: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, key.String()+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: creating snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("persist: writing snapshot %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: writing snapshot %s: %w", key, err)
	}
	if err := os.Rename(tmpName, s.path(key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: committing snapshot %s: %w", key, err)
	}
	if s.maxBytes > 0 {
		// A failed sweep must not fail the write: the snapshot itself landed.
		// The just-written snapshot is excluded from the sweep explicitly —
		// on filesystems with coarse mtime granularity it could otherwise tie
		// with a stale sibling and lose the LRU ordering.
		_, _ = s.compact(s.path(key))
	}
	return nil
}

// CompactStats reports what a sweep removed and what remains.
type CompactStats struct {
	// Removed and RemovedBytes count the snapshot files the LRU sweep
	// deleted (temp files are accounted separately).
	Removed      int
	RemovedBytes int64
	// TempRemoved counts aged orphan temp files reclaimed by the sweep.
	TempRemoved int
	// Remaining and RemainingBytes describe the store's snapshots after the
	// sweep.
	Remaining      int
	RemainingBytes int64
}

// Compact sweeps the store: orphaned temp files older than an hour are
// removed unconditionally, and — when a size cap is set — the
// least-recently-used snapshots (oldest modification time; Load refreshes
// it) are removed until the remaining snapshots fit in MaxBytes. The
// most-recently-used snapshot is never removed even if it alone exceeds the
// cap, so a store whose cap is smaller than one snapshot still serves warm
// starts for the live fingerprint.
func (s *DirStore) Compact() (CompactStats, error) { return s.compact("") }

// compact implements Compact; a non-empty protect path (the snapshot a Save
// just wrote) is never swept regardless of its timestamp.
func (s *DirStore) compact(protect string) (CompactStats, error) {
	var stats CompactStats
	entries, err := os.ReadDir(s.dir)
	if errors.Is(err, os.ErrNotExist) {
		return stats, nil
	}
	if err != nil {
		return stats, fmt.Errorf("persist: compacting snapshot dir: %w", err)
	}

	type snapFile struct {
		path    string
		size    int64
		mtime   time.Time
		removed bool
	}
	var snaps []snapFile
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent sweep; skip
		}
		path := filepath.Join(s.dir, e.Name())
		switch {
		case strings.HasSuffix(e.Name(), snapshotExt):
			snaps = append(snaps, snapFile{path: path, size: info.Size(), mtime: info.ModTime()})
			total += info.Size()
		case strings.Contains(e.Name(), ".tmp-"):
			// An aged orphan from a crashed writer.
			if time.Since(info.ModTime()) > tmpMaxAge {
				if os.Remove(path) == nil {
					stats.TempRemoved++
				}
			}
		}
	}

	if s.maxBytes > 0 && total > s.maxBytes {
		// Stable order with a path tie-break: coarse filesystem timestamps
		// can tie, and the sweep must stay deterministic when they do. The
		// protected snapshot sorts as the most recent whatever its
		// timestamp, so the loop bound that spares the newest snapshot is
		// what spares it.
		sort.SliceStable(snaps, func(i, j int) bool {
			if pi, pj := snaps[i].path == protect, snaps[j].path == protect; pi != pj {
				return pj
			}
			if !snaps[i].mtime.Equal(snaps[j].mtime) {
				return snaps[i].mtime.Before(snaps[j].mtime)
			}
			return snaps[i].path < snaps[j].path
		})
		for i := 0; i < len(snaps)-1 && total > s.maxBytes; i++ {
			if err := os.Remove(snaps[i].path); err != nil {
				continue
			}
			total -= snaps[i].size
			stats.Removed++
			stats.RemovedBytes += snaps[i].size
			snaps[i].removed = true
		}
	}
	for _, f := range snaps {
		if !f.removed {
			stats.Remaining++
			stats.RemainingBytes += f.size
		}
	}
	return stats, nil
}

// Size returns the total bytes and file count of the snapshots currently in
// the store (temp files excluded). A store whose directory does not exist
// yet is empty.
func (s *DirStore) Size() (bytes int64, files int, err error) {
	entries, err := os.ReadDir(s.dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("persist: sizing snapshot dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapshotExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		bytes += info.Size()
		files++
	}
	return bytes, files, nil
}
