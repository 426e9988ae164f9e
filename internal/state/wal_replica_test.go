package state

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func tmpWAL(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func TestSetSeqOnlyForward(t *testing.T) {
	w, err := OpenWAL(tmpWAL(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.SetSeq(41); err != nil {
		t.Fatal(err)
	}
	seq, err := w.AppendBatch([]Record{{Type: RecAccept}})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("append after SetSeq(41) assigned %d, want 42", seq)
	}
	if err := w.SetSeq(10); err == nil {
		t.Fatal("SetSeq regressed the counter without error")
	}
}

func TestEncodeDecodeRecords(t *testing.T) {
	recs := []Record{
		{Seq: 7, Type: RecStatement, SQL: "UPDATE t SET a = 1"},
		{Seq: 8, Type: RecVote,
			Plus:  []IndexSpec{{Table: "t", Columns: []string{"a"}}},
			Minus: []IndexSpec{{Table: "u", Columns: []string{"b", "c"}}}},
		{Seq: 9, Type: RecAccept},
	}
	data := EncodeRecords(recs)
	got, err := DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Seq != recs[i].Seq || got[i].Type != recs[i].Type || got[i].SQL != recs[i].SQL {
			t.Fatalf("record %d diverged: %+v vs %+v", i, got[i], recs[i])
		}
		if len(got[i].Plus) != len(recs[i].Plus) || len(got[i].Minus) != len(recs[i].Minus) {
			t.Fatalf("record %d specs diverged", i)
		}
	}

	// Truncation and corruption reject the WHOLE batch — a replication
	// message is all-or-nothing, unlike the WAL's tolerant tail scan.
	if _, err := DecodeRecords(data[:len(data)-1]); err == nil {
		t.Fatal("truncated batch decoded")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	if _, err := DecodeRecords(bad); err == nil {
		t.Fatal("corrupt batch decoded")
	}
}

// TestWALHooksTornWrite proves the injected torn write leaves exactly the
// on-disk state a crash mid-write would: the intact prefix survives, the
// torn frame is repaired away on reopen, and appends continue cleanly.
func TestWALHooksTornWrite(t *testing.T) {
	path := tmpWAL(t)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch([]Record{{Type: RecStatement, SQL: "SELECT 1"}}); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("torn")
	torn := false
	w.SetHooks(&WALHooks{
		Write: func(p []byte, real func([]byte) (int, error)) (int, error) {
			if torn {
				return real(p)
			}
			torn = true
			real(p[:3]) //nolint:errcheck
			return 3, injected
		},
	})
	if _, err := w.AppendBatch([]Record{{Type: RecStatement, SQL: "SELECT 2"}}); !errors.Is(err, injected) {
		t.Fatalf("torn append error = %v, want %v", err, injected)
	}
	w.Abort() // the process is dead; nothing more reaches the file

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []Record
	r, err := OpenWAL(path, func(rec Record) error {
		replayed = append(replayed, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(replayed) != 1 || replayed[0].SQL != "SELECT 1" {
		t.Fatalf("recovered %d records (%v), want the intact prefix only", len(replayed), replayed)
	}
	if r.Size() >= info.Size() {
		t.Fatalf("torn tail not truncated: size %d -> %d", info.Size(), r.Size())
	}
	if _, err := r.AppendBatch([]Record{{Type: RecStatement, SQL: "SELECT 3"}}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}
