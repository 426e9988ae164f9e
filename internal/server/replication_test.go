package server

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/state"
)

// TestSeqCounterRestoredAfterCleanRestart is the regression test for a
// silent-loss bug: after a clean shutdown (checkpoint + WAL reset) the
// sequence counter lived only in memory, so a reopened session reissued
// sequence numbers the snapshot already covered — and the NEXT recovery
// skipped those acknowledged statements as old. The counter must be
// restored from the snapshot's LastSeq.
func TestSeqCounterRestoredAfterCleanRestart(t *testing.T) {
	const first, second = 20, 10
	sqls := recoveryWorkloadSQL(t, first+second)
	cat, _ := datagen.Build()
	dir := filepath.Join(t.TempDir(), "seq")

	sess, err := CreateSession(dir, cat, testSessionConfig("seq"))
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, sess, sqls, 0, first, false)
	covered := sess.LastSeq()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenSession(dir, cat, SessionRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.LastSeq(); got != covered {
		t.Fatalf("sequence counter after clean restart: %d, want %d", got, covered)
	}
	driveSession(t, reopened, sqls, first, first+second, false)
	if got := reopened.LastSeq(); got <= covered {
		t.Fatalf("post-restart appends did not advance past the snapshot: %d <= %d", got, covered)
	}
	want := exportTuner(reopened)
	reopened.Kill()

	recovered, err := OpenSession(dir, cat, SessionRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Status().Statements; got != first+second {
		t.Fatalf("second recovery sees %d statements, want %d (acknowledged post-restart records were skipped)", got, first+second)
	}
	if !reflect.DeepEqual(want, exportTuner(recovered)) {
		t.Fatal("tuner state diverged across restart + crash recovery")
	}
}

// TestApplyReplicatedDedupAndGap exercises the follower apply contract:
// re-shipped records are dropped (exactly-once), a gap — at the head of a
// batch or inside it — is rejected whole with nothing written, and the
// applied stream matches a local session fed the same statements. The
// follower's WAL is the primary's, byte for byte, and a reopen keeps the
// primary's sequence numbers.
func TestApplyReplicatedDedupAndGap(t *testing.T) {
	const total = 12
	sqls := recoveryWorkloadSQL(t, total)
	cat, _ := datagen.Build()

	// The "primary": a plain session whose WAL we read back as the ship
	// stream.
	pDir := filepath.Join(t.TempDir(), "p")
	primary, err := CreateSession(pDir, cat, testSessionConfig("s"))
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, primary, sqls, 0, total, false)
	want := exportTuner(primary)
	primary.Kill()
	var stream []state.Record
	wal, err := state.OpenWAL(filepath.Join(pDir, walFile), func(rec state.Record) error {
		stream = append(stream, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	if len(stream) < total {
		t.Fatalf("primary WAL has %d records, want >= %d", len(stream), total)
	}

	fDir := filepath.Join(t.TempDir(), "f")
	follower, err := CreateSession(fDir, cat, testSessionConfig("s"))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	cut := len(stream) / 2
	if _, err := follower.ApplyReplicated(stream[:cut]); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	before := follower.Status()
	// A gap must be rejected with a GapError and leave the cursor and the
	// log alone — whether the batch starts past the cursor or skips a
	// record after continuing it.
	for _, gapped := range []struct {
		name  string
		batch []state.Record
	}{
		{"head", stream[cut+1:]},
		{"inner", append(append([]state.Record{}, stream[cut:cut+2]...), stream[cut+3:]...)},
	} {
		var gap *GapError
		if _, err := follower.ApplyReplicated(gapped.batch); !errors.As(err, &gap) {
			t.Fatalf("%s gap: error = %T (%v), want *GapError", gapped.name, err, err)
		}
		if gap.Have != before.WALSeq {
			t.Fatalf("%s gap: GapError.Have = %d, want %d", gapped.name, gap.Have, before.WALSeq)
		}
		after := follower.Status()
		if after.WALSeq != before.WALSeq || after.WALBytes != before.WALBytes || after.Statements != before.Statements {
			t.Fatalf("%s gap reached the follower: seq %d -> %d, bytes %d -> %d, statements %d -> %d", gapped.name,
				before.WALSeq, after.WALSeq, before.WALBytes, after.WALBytes, before.Statements, after.Statements)
		}
	}
	// A re-ship overlapping the applied prefix applies only the new tail.
	if _, err := follower.ApplyReplicated(stream); err != nil {
		t.Fatalf("overlapping re-ship: %v", err)
	}
	if got := follower.LastSeq(); got != stream[len(stream)-1].Seq {
		t.Fatalf("cursor after full stream: %d, want %d", got, stream[len(stream)-1].Seq)
	}
	// Shipping the whole stream again is a no-op.
	if _, err := follower.ApplyReplicated(stream); err != nil {
		t.Fatalf("duplicate re-ship: %v", err)
	}
	if got := follower.Status().Statements; got != total {
		t.Fatalf("follower applied %d statements, want %d (duplicates were double-applied)", got, total)
	}
	if !reflect.DeepEqual(want, exportTuner(follower)) {
		t.Fatal("follower tuner state diverged from the primary's")
	}

	follower.Kill()
	pLog, err := os.ReadFile(filepath.Join(pDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	fLog, err := os.ReadFile(filepath.Join(fDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pLog, fLog) {
		t.Fatalf("follower WAL (%d bytes) differs from the primary's (%d bytes)", len(fLog), len(pLog))
	}
	reopened, err := OpenSession(fDir, cat, SessionRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.LastSeq(); got != stream[len(stream)-1].Seq {
		t.Fatalf("reopened follower at seq %d, want the primary's %d", got, stream[len(stream)-1].Seq)
	}
	if !reflect.DeepEqual(want, exportTuner(reopened)) {
		t.Fatal("reopened follower diverged from the primary")
	}
}

// recordingShipper keeps every record its primary commits, in order.
type recordingShipper struct{ recs []state.Record }

func (r *recordingShipper) Commit(recs []state.Record) error {
	r.recs = append(r.recs, recs...)
	return nil
}
func (r *recordingShipper) Checkpointed(uint64) {}
func (r *recordingShipper) Stats() ShipperStats { return ShipperStats{Sync: true} }
func (r *recordingShipper) Close() error        { return nil }

// TestStandbySpeculatesAcrossCompactions ships a retire-enabled primary's
// whole stream — statements, votes, accepts and several registry
// compactions — to a speculating standby in ONE ApplyReplicated call. The
// capture window must stop at each compaction and reap the in-flight
// analyses before the IDs are renumbered; the standby must end
// bit-identical to the primary.
func TestStandbySpeculatesAcrossCompactions(t *testing.T) {
	const total = 400
	sqls := recoveryWorkloadSQL(t, total)
	cat, _ := datagen.Build()

	ship := &recordingShipper{}
	primary, err := CreateSessionWith(filepath.Join(t.TempDir(), "p"), cat, pipelineSessionConfig("sc"), SessionRuntime{
		Batch:      32,
		NewShipper: func(uint64, []state.Record) Shipper { return ship },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	drivePipeline(t, primary, sqls, 0, total, 64)

	standby, err := CreateSessionWith(filepath.Join(t.TempDir(), "s"), cat, pipelineSessionConfig("sc"), SessionRuntime{Pipeline: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	compactions := 0
	for _, rec := range ship.recs {
		if rec.Type == state.RecCompact && rec.Seq > standby.LastSeq() {
			compactions++
		}
	}
	if compactions < 2 {
		t.Fatalf("the shipped stream crosses %d compactions, want >= 2", compactions)
	}
	if _, err := standby.ApplyReplicated(ship.recs); err != nil {
		t.Fatal(err)
	}

	ps, ss := primary.Status(), standby.Status()
	if ss.Statements != total || ss.WALSeq != ps.WALSeq {
		t.Fatalf("standby at %d statements / seq %d, primary at %d / %d", ss.Statements, ss.WALSeq, ps.Statements, ps.WALSeq)
	}
	if math.Float64bits(ps.TotalWork) != math.Float64bits(ss.TotalWork) {
		t.Fatalf("total work diverged: standby %v, primary %v", ss.TotalWork, ps.TotalWork)
	}
	if !reflect.DeepEqual(exportTuner(primary), exportTuner(standby)) {
		t.Fatal("standby tuner state diverged from the primary's")
	}
	if ss.SpecHits == 0 {
		t.Fatalf("the standby never speculated (%d misses)", ss.SpecMisses)
	}
	t.Logf("standby: %d records, %d compactions, speculation %d hits / %d misses",
		len(ship.recs), compactions, ss.SpecHits, ss.SpecMisses)
}
