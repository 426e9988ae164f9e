package server

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/state"
	"repro/internal/workload"
)

// recoveryWorkloadSQL renders a deterministic SQL stream of at least n
// statements spanning several datasets and both statement kinds.
func recoveryWorkloadSQL(t *testing.T, n int) []string {
	t.Helper()
	cat, joins := datagen.Build()
	w := workload.DefaultOptions()
	w.Phases = 4
	w.PerPhase = (n + 3) / 4
	w.QueryTemplates = 6
	w.UpdateTemplates = 2
	wl := workload.Generate(cat, joins, w)
	if wl.Len() < n {
		t.Fatalf("workload too short: %d < %d", wl.Len(), n)
	}
	out := make([]string, 0, n)
	for _, s := range wl.Statements[:n] {
		out = append(out, s.SQL)
	}
	return out
}

func testSessionConfig(name string) SessionConfig {
	options := core.DefaultOptions()
	options.IdxCnt = 16
	options.StateCnt = 200
	return SessionConfig{
		Name:            name,
		Options:         options,
		CheckpointEvery: -1, // only the schedule below checkpoints
	}
}

// driveSession feeds statements [from, to) into the session, interleaving
// the deterministic DBA schedule: a vote after every 101st statement, an
// accept after every 97th, and an explicit checkpoint after every 150th
// (only when checkpoints is true — the uninterrupted reference never
// checkpoints, proving snapshots don't perturb the tuner).
func driveSession(t *testing.T, sess *Session, sqls []string, from, to int, checkpoints bool) {
	t.Helper()
	ctx := context.Background()
	vote := []state.IndexSpec{{Table: "tpch.lineitem", Columns: []string{"l_shipdate"}}}
	for i := from; i < to; i++ {
		if _, _, err := sess.Ingest(ctx, sqls[i:i+1]); err != nil {
			t.Fatalf("ingest statement %d: %v", i+1, err)
		}
		pos := i + 1
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
		if checkpoints && pos%150 == 0 {
			if _, err := sess.Checkpoint(); err != nil {
				t.Fatalf("checkpoint at %d: %v", pos, err)
			}
		}
	}
}

// exportTuner reaches into the session for the full tuner state (test-only;
// same package).
func exportTuner(s *Session) state.TunerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tuner.ExportState()
}

// TestCrashRecoveryBitIdentical is the acceptance test of the persistence
// subsystem: a >=500-statement workload with interleaved votes and
// accepts, interrupted by a simulated kill -9 at an arbitrary point (disk
// holds a snapshot plus a partial WAL), recovered, and driven to the end —
// must finish with the same recommendation set and a bit-identical
// cumulative total work as a session that never stopped.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	const total = 520
	const cut = 337 // between the checkpoints at 150 and 300 ... and 450
	sqls := recoveryWorkloadSQL(t, total)
	cat, _ := datagen.Build()

	// Uninterrupted reference: no snapshots at all.
	refDir := filepath.Join(t.TempDir(), "ref")
	ref, err := CreateSession(refDir, cat, testSessionConfig("ref"))
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, ref, sqls, 0, total, false)

	// Interrupted run: checkpoints on schedule, killed at cut with WAL
	// records since the last snapshot unreplayed on disk.
	crashDir := filepath.Join(t.TempDir(), "crash")
	sess, err := CreateSession(crashDir, cat, testSessionConfig("ref"))
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, sess, sqls, 0, cut, true)
	sess.Kill()

	recovered, err := OpenSession(crashDir, cat, SessionRuntime{})
	if err != nil {
		t.Fatalf("recovering crashed session: %v", err)
	}
	defer recovered.Close()
	if got := recovered.Status().Statements; got != cut {
		t.Fatalf("recovered session has %d statements, want %d", got, cut)
	}
	driveSession(t, recovered, sqls, cut, total, true)

	refStatus, gotStatus := ref.Status(), recovered.Status()
	if refStatus.Statements != gotStatus.Statements {
		t.Fatalf("statements: %d vs %d", gotStatus.Statements, refStatus.Statements)
	}
	if math.Float64bits(refStatus.TotalWork) != math.Float64bits(gotStatus.TotalWork) {
		t.Fatalf("total work diverged: recovered %v (%x), uninterrupted %v (%x)",
			gotStatus.TotalWork, math.Float64bits(gotStatus.TotalWork),
			refStatus.TotalWork, math.Float64bits(refStatus.TotalWork))
	}
	if math.Float64bits(refStatus.TransitionCost) != math.Float64bits(gotStatus.TransitionCost) {
		t.Fatalf("transition cost diverged: %v vs %v", gotStatus.TransitionCost, refStatus.TransitionCost)
	}
	refRec, _, _ := ref.Recommendation()
	gotRec, _, _ := recovered.Recommendation()
	if !refRec.Equal(gotRec) {
		t.Fatalf("recommendations diverged:\n  recovered:     %s\n  uninterrupted: %s",
			gotRec.Format(recovered.Registry()), refRec.Format(ref.Registry()))
	}
	if !reflect.DeepEqual(exportTuner(ref), exportTuner(recovered)) {
		t.Fatalf("full tuner states diverged after recovery")
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryFromWALOnly recovers a session that never checkpointed
// after creation: the initial empty snapshot plus a full WAL replay must
// rebuild it exactly.
func TestRecoveryFromWALOnly(t *testing.T) {
	const total = 60
	sqls := recoveryWorkloadSQL(t, total)
	cat, _ := datagen.Build()

	dir := filepath.Join(t.TempDir(), "walonly")
	sess, err := CreateSession(dir, cat, testSessionConfig("w"))
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, sess, sqls, 0, total, false)
	want := exportTuner(sess)
	wantStatus := sess.Status()
	sess.Kill()

	recovered, err := OpenSession(dir, cat, SessionRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if !reflect.DeepEqual(want, exportTuner(recovered)) {
		t.Fatalf("tuner state diverged after WAL-only recovery")
	}
	got := recovered.Status()
	// The throughput gauges count THIS process's group commits —
	// operational counters, deliberately not part of the persisted state
	// a recovery reproduces.
	got.GroupCommits, got.GroupCommitRecords = wantStatus.GroupCommits, wantStatus.GroupCommitRecords
	got.Checkpoints = wantStatus.Checkpoints
	if got != wantStatus {
		t.Fatalf("status diverged: %+v vs %+v", got, wantStatus)
	}
}

// TestCloseReopenIsCheckpointed verifies graceful shutdown: Close writes
// a snapshot and truncates the WAL, so reopening replays nothing.
func TestCloseReopenIsCheckpointed(t *testing.T) {
	sqls := recoveryWorkloadSQL(t, 30)
	cat, _ := datagen.Build()
	dir := filepath.Join(t.TempDir(), "graceful")
	sess, err := CreateSession(dir, cat, testSessionConfig("g"))
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, sess, sqls, 0, 30, false)
	want := exportTuner(sess)
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	replayed := 0
	wal, err := state.OpenWAL(filepath.Join(dir, walFile), func(state.Record) error {
		replayed++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	if replayed != 0 {
		t.Fatalf("WAL still has %d records after graceful close", replayed)
	}

	recovered, err := OpenSession(dir, cat, SessionRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if !reflect.DeepEqual(want, exportTuner(recovered)) {
		t.Fatalf("tuner state diverged across graceful restart")
	}
}

// TestRecoveryKeepsCheckpointSchedule is the regression test for a
// recovered session that counted every replayed record (votes, accepts
// and compactions as well as statements) toward its next checkpoint,
// where a live session counts statements only. A session killed after
// five statements and three votes, recovered and driven on, must
// checkpoint after the same statements, log the same WAL sequence
// numbers and end in the same tuner state as a twin that never stopped.
func TestRecoveryKeepsCheckpointSchedule(t *testing.T) {
	const total, cut = 30, 5
	sqls := recoveryWorkloadSQL(t, total)
	cat, _ := datagen.Build()
	cfg := testSessionConfig("ckpt")
	cfg.CheckpointEvery = 10
	cfg.Options.RetireAfter = 4
	votes := map[int][]state.IndexSpec{ // cast after the statement they are keyed by
		1: {{Table: "tpch.lineitem", Columns: []string{"l_shipdate"}}},
		3: {{Table: "tpch.orders", Columns: []string{"o_orderdate"}}},
		4: {{Table: "tpch.lineitem", Columns: []string{"l_partkey"}}},
	}
	// step is what a statement left behind: whether a checkpoint followed
	// it, and the WAL sequence number after it.
	type step struct {
		checkpointed bool
		seq          uint64
	}
	drive := func(sess *Session, from, to int) []step {
		ctx := context.Background()
		var steps []step
		prev := sess.Status().Checkpoints
		for i := from; i < to; i++ {
			if _, _, err := sess.Ingest(ctx, sqls[i:i+1]); err != nil {
				t.Fatalf("ingest statement %d: %v", i+1, err)
			}
			if v, ok := votes[i+1]; ok {
				if _, err := sess.Vote(ctx, v, nil); err != nil {
					t.Fatalf("vote after statement %d: %v", i+1, err)
				}
			}
			st := sess.Status()
			steps = append(steps, step{checkpointed: st.Checkpoints > prev, seq: st.WALSeq})
			prev = st.Checkpoints
		}
		return steps
	}

	twin, err := CreateSession(filepath.Join(t.TempDir(), "twin"), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	want := drive(twin, 0, total)[cut:]

	dir := filepath.Join(t.TempDir(), "crash")
	sess, err := CreateSession(dir, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(sess, 0, cut)
	sess.Kill()
	recovered, err := OpenSession(dir, cat, SessionRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	got := drive(recovered, cut, total)

	var wantAt, gotAt []int
	for k := range want {
		if want[k].checkpointed {
			wantAt = append(wantAt, cut+k+1)
		}
		if got[k].checkpointed {
			gotAt = append(gotAt, cut+k+1)
		}
	}
	if !reflect.DeepEqual(gotAt, wantAt) {
		t.Fatalf("the recovered session checkpointed after statements %v, the uninterrupted twin after %v", gotAt, wantAt)
	}
	for k := range want {
		if got[k].seq != want[k].seq {
			t.Fatalf("after statement %d the recovered session is at WAL seq %d, the twin at %d", cut+k+1, got[k].seq, want[k].seq)
		}
	}
	if !reflect.DeepEqual(exportTuner(recovered), exportTuner(twin)) {
		t.Fatal("the recovered session's tuner state diverged from the uninterrupted twin's")
	}
}
