package server

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/state"
)

// drivePipeline feeds statements [from, to) into the session in Ingest
// batches of up to stride statements, interleaving the deterministic DBA
// schedule at fixed ABSOLUTE stream positions: a vote after every 101st
// statement, an accept after every 97th, an explicit checkpoint after
// every 250th. Batch boundaries are clipped at those positions, so a
// stride-1 caller and a stride-64 caller produce the identical event
// stream — which is exactly what the differential test needs.
func drivePipeline(t *testing.T, sess *Session, sqls []string, from, to, stride int) {
	t.Helper()
	ctx := context.Background()
	vote := []state.IndexSpec{{Table: "tpch.lineitem", Columns: []string{"l_shipdate"}}}
	i := from
	for i < to {
		end := min(to, i+stride)
		for p := i + 1; p <= end; p++ {
			if p%101 == 0 || p%97 == 0 || p%250 == 0 {
				end = p
				break
			}
		}
		if _, _, err := sess.Ingest(ctx, sqls[i:end]); err != nil {
			t.Fatalf("ingest [%d,%d): %v", i, end, err)
		}
		pos := end
		if pos%101 == 0 {
			if _, err := sess.Vote(ctx, vote, nil); err != nil {
				t.Fatalf("vote at %d: %v", pos, err)
			}
		}
		if pos%97 == 0 {
			if _, err := sess.Accept(ctx); err != nil {
				t.Fatalf("accept at %d: %v", pos, err)
			}
		}
		if pos%250 == 0 {
			if _, err := sess.Checkpoint(); err != nil {
				t.Fatalf("checkpoint at %d: %v", pos, err)
			}
		}
		i = end
	}
}

// pipelineSessionConfig is the differential tests' config: automatic
// checkpoints every 150 statements with retirement enabled, so registry
// compactions land at checkpoint boundaries mid-workload — the alignment
// the group-commit chunk cutting must reproduce exactly. The batch knob
// travels in a SessionRuntime.
func pipelineSessionConfig(name string) SessionConfig {
	cfg := testSessionConfig(name)
	cfg.Options.RetireAfter = 120
	cfg.CheckpointEvery = 150
	return cfg
}

// TestBatchedPipelineBitIdentical is the acceptance test of the batched
// ingest path, once per engine: a 520-statement workload with interleaved
// votes, accepts, automatic+explicit checkpoints, and retirement-driven
// compactions, driven once through a per-record serial session (batch 1,
// one statement per request) and once through a batched session (batch
// 32, up to 64 statements per request). Everything observable must be
// bit-identical: total work and transition cost to the float bit, the
// recommendation, the WAL sequence (same records in the same order,
// compactions included), and the full exported tuner state.
func TestBatchedPipelineBitIdentical(t *testing.T) {
	const total = 520
	sqls := recoveryWorkloadSQL(t, total)
	for _, kind := range []string{"wfit", "bandit"} {
		t.Run(kind, func(t *testing.T) { testBatchedPipeline(t, kind, sqls) })
	}
}

func testBatchedPipeline(t *testing.T, kind string, sqls []string) {
	total := len(sqls)
	cat, _ := datagen.Build()
	cfg := pipelineSessionConfig("diff")
	cfg.Tuner = kind

	serialDir := filepath.Join(t.TempDir(), "serial")
	serial, err := CreateSession(serialDir, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	drivePipeline(t, serial, sqls, 0, total, 1)

	batchedDir := filepath.Join(t.TempDir(), "batched")
	batched, err := CreateSessionWith(batchedDir, cat, cfg, SessionRuntime{Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	drivePipeline(t, batched, sqls, 0, total, 64)

	ss, bs := serial.Status(), batched.Status()
	if ss.Statements != bs.Statements {
		t.Fatalf("statements: %d vs %d", bs.Statements, ss.Statements)
	}
	if math.Float64bits(ss.TotalWork) != math.Float64bits(bs.TotalWork) {
		t.Fatalf("total work diverged: batched %v (%x), serial %v (%x)",
			bs.TotalWork, math.Float64bits(bs.TotalWork),
			ss.TotalWork, math.Float64bits(ss.TotalWork))
	}
	if math.Float64bits(ss.TransitionCost) != math.Float64bits(bs.TransitionCost) {
		t.Fatalf("transition cost diverged: %v vs %v", bs.TransitionCost, ss.TransitionCost)
	}
	if ss.WALSeq != bs.WALSeq {
		t.Fatalf("WAL sequences diverged (%d vs %d): batching moved a record", bs.WALSeq, ss.WALSeq)
	}
	if ss.Repartitions != bs.Repartitions || ss.Retired != bs.Retired || ss.RegistrySize != bs.RegistrySize {
		t.Fatalf("tuner gauges diverged: %+v vs %+v", bs, ss)
	}
	sRec, _, _ := serial.Recommendation()
	bRec, _, _ := batched.Recommendation()
	if !sRec.Equal(bRec) {
		t.Fatalf("recommendations diverged:\n  batched: %s\n  serial:  %s",
			bRec.Format(batched.Registry()), sRec.Format(serial.Registry()))
	}
	if !reflect.DeepEqual(exportTuner(serial), exportTuner(batched)) {
		t.Fatalf("full tuner states diverged between serial and batched sessions")
	}

	// The batched session must actually have batched — otherwise this
	// test silently degenerates into serial-vs-serial.
	if bs.GroupCommits == 0 || bs.GroupCommitRecords <= bs.GroupCommits {
		t.Fatalf("no real group commits happened: %d commits over %d records",
			bs.GroupCommits, bs.GroupCommitRecords)
	}
	t.Logf("batched: %d group commits over %d records (%.1f avg)",
		bs.GroupCommits, bs.GroupCommitRecords,
		float64(bs.GroupCommitRecords)/float64(bs.GroupCommits))
}

// TestGroupCommitCrashWindow models a kill -9 landing in the window
// between a group commit and the apply of its records: the WAL holds an
// acknowledged-on-disk batch the in-memory tuner never saw. Recovery must
// replay that batch and land bit-identical to a session that applied the
// same statements live.
func TestGroupCommitCrashWindow(t *testing.T) {
	const applied = 80
	const inFlight = 12 // group-committed but never applied
	sqls := recoveryWorkloadSQL(t, applied+inFlight)
	cat, _ := datagen.Build()

	// Control: applies everything live.
	controlDir := filepath.Join(t.TempDir(), "control")
	control, err := CreateSessionWith(controlDir, cat, pipelineSessionConfig("cw"), SessionRuntime{Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	drivePipeline(t, control, sqls, 0, applied+inFlight, 64)

	// Crash victim: applies the first part, dies, and then the crash
	// window is reconstructed on its WAL — a group commit whose records
	// were durable but unapplied.
	crashDir := filepath.Join(t.TempDir(), "crash")
	victim, err := CreateSessionWith(crashDir, cat, pipelineSessionConfig("cw"), SessionRuntime{Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	drivePipeline(t, victim, sqls, 0, applied, 64)
	victim.Kill()

	wal, err := state.OpenWAL(filepath.Join(crashDir, walFile), nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]state.Record, 0, inFlight)
	for _, sql := range sqls[applied:] {
		recs = append(recs, state.Record{Type: state.RecStatement, SQL: sql})
	}
	if _, err := wal.AppendBatch(recs); err != nil {
		t.Fatalf("reconstructing the crash window: %v", err)
	}
	if err := wal.Abort(); err != nil { // kill -9: no graceful close
		t.Fatal(err)
	}

	recovered, err := OpenSession(crashDir, cat, SessionRuntime{Batch: 32})
	if err != nil {
		t.Fatalf("recovering: %v", err)
	}
	defer recovered.Close()

	cs, rs := control.Status(), recovered.Status()
	if rs.Statements != applied+inFlight {
		t.Fatalf("recovered %d statements, want %d", rs.Statements, applied+inFlight)
	}
	if math.Float64bits(cs.TotalWork) != math.Float64bits(rs.TotalWork) {
		t.Fatalf("total work diverged: recovered %v, control %v", rs.TotalWork, cs.TotalWork)
	}
	if !reflect.DeepEqual(exportTuner(control), exportTuner(recovered)) {
		t.Fatalf("tuner state diverged after replaying the crash-window batch")
	}
}

// TestIngestParseErrorAtomic pins the documented ParseError contract for
// batches: one malformed statement rejects the whole batch BEFORE any
// statement is applied or WAL-logged.
func TestIngestParseErrorAtomic(t *testing.T) {
	sqls := recoveryWorkloadSQL(t, 10)
	cat, _ := datagen.Build()
	sess, err := CreateSessionWith(filepath.Join(t.TempDir(), "atomic"), cat, pipelineSessionConfig("atomic"), SessionRuntime{Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	if _, _, err := sess.Ingest(ctx, sqls[:5]); err != nil {
		t.Fatal(err)
	}
	before := sess.Status()
	tunerBefore := exportTuner(sess)

	bad := append(append([]string{}, sqls[5:8]...), "SELECT FROM WHERE nonsense (")
	results, _, err := sess.Ingest(ctx, bad)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("malformed batch returned %v, want ParseError", err)
	}
	if len(results) != 0 {
		t.Fatalf("rejected batch still reported %d applied statements", len(results))
	}

	after := sess.Status()
	if after.Statements != before.Statements {
		t.Fatalf("rejected batch applied statements: %d -> %d", before.Statements, after.Statements)
	}
	if after.WALSeq != before.WALSeq || after.WALBytes != before.WALBytes {
		t.Fatalf("rejected batch reached the WAL: seq %d -> %d, bytes %d -> %d",
			before.WALSeq, after.WALSeq, before.WALBytes, after.WALBytes)
	}
	if !reflect.DeepEqual(tunerBefore, exportTuner(sess)) {
		t.Fatalf("rejected batch mutated tuner state")
	}

	// The session keeps working after the rejection.
	if _, _, err := sess.Ingest(ctx, sqls[8:]); err != nil {
		t.Fatal(err)
	}
	if got := sess.Status().Statements; got != 7 {
		t.Fatalf("statements after recovery from rejection: %d, want 7", got)
	}

	// An empty batch is a no-op, not a hang (regression: a zero-event
	// job would never receive a reply).
	results, _, err = sess.Ingest(ctx, nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: results=%v err=%v", results, err)
	}
	if got := sess.Status().Statements; got != 7 {
		t.Fatalf("empty batch changed statement count: %d", got)
	}
}
