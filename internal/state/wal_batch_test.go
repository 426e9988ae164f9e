package state

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWALAppendBatchGroupCommit verifies the group-commit append: one call
// frames N records, replay sees them in order with consecutive sequence
// numbers, Size tracks FrameSize exactly, and later groups (one record
// or none) continue the same sequence.
func TestWALAppendBatchGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	batch := []Record{
		{Type: RecStatement, SQL: "SELECT count(*) FROM tpch.lineitem"},
		{Type: RecVote, Plus: []IndexSpec{{Table: "tpch.lineitem", Columns: []string{"l_shipdate"}}}},
		{Type: RecStatement, SQL: "SELECT count(*) FROM tpch.orders WHERE o_orderdate BETWEEN 1 AND 2"},
		{Type: RecAccept},
	}
	wantSize := w.Size()
	for _, rec := range batch {
		wantSize += FrameSize(rec)
	}
	last, err := w.AppendBatch(append([]Record(nil), batch...))
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if last != uint64(len(batch)) {
		t.Fatalf("AppendBatch returned seq %d, want %d", last, len(batch))
	}
	if w.Size() != wantSize {
		t.Fatalf("Size = %d, want %d (header + Σ FrameSize)", w.Size(), wantSize)
	}
	// A one-record group continues the same sequence.
	if seq, err := w.AppendBatch([]Record{{Type: RecAccept}}); err != nil || seq != uint64(len(batch)+1) {
		t.Fatalf("one-record AppendBatch after batch: seq=%d err=%v", seq, err)
	}
	// An empty batch is a no-op.
	if seq, err := w.AppendBatch(nil); err != nil || seq != uint64(len(batch)+1) {
		t.Fatalf("empty AppendBatch: seq=%d err=%v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	w, err = OpenWAL(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if w.Size() != info.Size() {
		t.Fatalf("Size = %d, file holds %d bytes", w.Size(), info.Size())
	}
	if len(got) != len(batch)+1 {
		t.Fatalf("replayed %d records, want %d", len(got), len(batch)+1)
	}
	for i, r := range got[:len(batch)] {
		want := batch[i]
		want.Seq = uint64(i + 1)
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	w.Close()
}

// TestWALAppendBatchTornTail tears the file inside the last record of a
// group-committed batch: recovery must keep the intact prefix of the
// batch, truncate the tail, and accept new appends at the right sequence.
func TestWALAppendBatchTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Record{
		{Type: RecStatement, SQL: "SELECT count(*) FROM tpcc.customer"},
		{Type: RecStatement, SQL: "SELECT count(*) FROM tpcc.district"},
		{Type: RecStatement, SQL: "SELECT count(*) FROM tpcc.warehouse"},
	}
	if _, err := w.AppendBatch(append([]Record(nil), batch...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the final record's payload — the on-disk
	// image a crash between the batch's write and its flush completing
	// could leave.
	cut := len(raw) - int(FrameSize(batch[2]))/2
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	var got []Record
	w, err = OpenWAL(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("torn replay returned %d records, want the 2-record intact prefix", len(got))
	}
	if w.Size() != int64(len(walMagic))+FrameSize(batch[0])+FrameSize(batch[1]) {
		t.Fatalf("Size = %d after torn-tail repair", w.Size())
	}
	if seq, err := w.AppendBatch([]Record{{Type: RecAccept}}); err != nil || seq != 3 {
		t.Fatalf("append after repair: seq=%d err=%v", seq, err)
	}
	w.Close()
}

// TestWALFrameSizeMatchesAppend confirms FrameSize predicts the exact Size
// delta of an append regardless of the sequence number assigned — the
// property the service's group-commit chunking relies on.
func TestWALFrameSizeMatchesAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := []Record{
		{Type: RecStatement, SQL: "SELECT 1"},
		{Type: RecVote, Minus: []IndexSpec{{Table: "t", Columns: []string{"a", "b"}}}},
		{Type: RecAccept},
		{Type: RecCompact},
		{Type: RecStatement, SQL: "SELECT count(*) FROM tpch.lineitem WHERE l_shipdate BETWEEN 10 AND 20"},
	}
	for i, rec := range recs {
		before := w.Size()
		want := FrameSize(rec)
		if _, err := w.AppendBatch([]Record{rec}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if got := w.Size() - before; got != want {
			t.Fatalf("record %d: size delta %d, FrameSize %d", i, got, want)
		}
	}
}
