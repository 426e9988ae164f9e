package state

import (
	"path/filepath"
	"testing"
	"time"
)

// TestWALOnCommitHook verifies the commit observer fires once per
// group commit with the records/bytes the commit covered, and that the
// sync component is zero when Fsync is off.
func TestWALOnCommitHook(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	type commit struct {
		flush, sync time.Duration
		records     int
		bytes       int64
	}
	var commits []commit
	w.OnCommit = func(flush, sync time.Duration, records int, bytes int64) {
		commits = append(commits, commit{flush, sync, records, bytes})
	}

	sizeBefore := w.Size()
	if _, err := w.AppendBatch([]Record{{Type: RecStatement, SQL: "SELECT 1"}}); err != nil {
		t.Fatal(err)
	}
	batch := []Record{
		{Type: RecStatement, SQL: "SELECT 2"},
		{Type: RecStatement, SQL: "SELECT 3"},
		{Type: RecAccept},
	}
	if _, err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}

	if len(commits) != 2 {
		t.Fatalf("OnCommit fired %d times, want 2 (one per commit)", len(commits))
	}
	if commits[0].records != 1 {
		t.Errorf("single append commit covered %d records, want 1", commits[0].records)
	}
	if commits[1].records != 3 {
		t.Errorf("batch commit covered %d records, want 3", commits[1].records)
	}
	total := commits[0].bytes + commits[1].bytes
	if got := w.Size() - sizeBefore; got != total {
		t.Errorf("committed bytes %d != WAL growth %d", total, got)
	}
	for i, c := range commits {
		if c.flush < 0 {
			t.Errorf("commit %d: negative flush duration %v", i, c.flush)
		}
		if c.sync != 0 {
			t.Errorf("commit %d: sync %v with Fsync off, want 0", i, c.sync)
		}
	}
}

// TestWALOnCommitFsync checks the sync phase is measured (and the hook
// still fires once per commit) when Fsync is on.
func TestWALOnCommitFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Fsync = true

	fired := 0
	var lastSync time.Duration
	w.OnCommit = func(flush, sync time.Duration, records int, bytes int64) {
		fired++
		lastSync = sync
	}
	if _, err := w.AppendBatch([]Record{{Type: RecStatement, SQL: "SELECT 1"}}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("OnCommit fired %d times, want 1", fired)
	}
	if lastSync <= 0 {
		t.Errorf("sync duration %v, want > 0 under Fsync", lastSync)
	}
}
