package server

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// recoveryPlan is one session of a multi-session data dir: its config,
// the statements driveSession feeds it (checkpointing every 150), and
// whether an explicit checkpoint then leaves its WAL tail empty.
type recoveryPlan struct {
	cfg       SessionConfig
	cut       int
	emptyTail bool
}

// recoveryPlans are five sessions, more than most machines' processors:
// both engines, one whose checkpoints compact the registry, one whose WAL
// tail is empty, and one that never checkpointed at all.
func recoveryPlans() []recoveryPlan {
	bandit := func(name string) SessionConfig {
		cfg := testSessionConfig(name)
		cfg.Tuner = "bandit"
		return cfg
	}
	return []recoveryPlan{
		{cfg: testSessionConfig("s1-wfit"), cut: 337},
		{cfg: bandit("s2-bandit"), cut: 260},
		{cfg: retireSessionConfig("s3-retire"), cut: 337},
		{cfg: testSessionConfig("s4-empty-tail"), cut: 200, emptyTail: true},
		{cfg: bandit("s5-wal-only"), cut: 120},
	}
}

// buildRecoveryDir creates the plans' sessions under a server on dir and
// drives each to its cut. With kill set it then kills them all, leaving
// the dir as kill -9 would; otherwise it returns the live server.
func buildRecoveryDir(t *testing.T, dir string, plans []recoveryPlan, sqls []string, kill bool) *Server {
	t.Helper()
	sv, err := New(Config{DataDir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		sess, err := sv.CreateSession(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		driveSession(t, sess, sqls, 0, p.cut, true)
		if p.emptyTail {
			if _, err := sess.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if kill {
			sess.Kill()
		}
	}
	return sv
}

// walRecords counts the records a session directory's WAL holds.
func walRecords(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	wal, err := state.OpenWAL(filepath.Join(dir, walFile), func(state.Record) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	return n
}

// snapshotBytes encodes the session's registry, tuner state and counters
// as a snapshot: sessions in the same state encode to the same bytes.
func snapshotBytes(t *testing.T, s *Session) []byte {
	t.Helper()
	s.mu.Lock()
	snap := &state.Snapshot{
		Defs:  state.CaptureRegistry(s.reg),
		Tuner: s.tuner.ExportState(),
		Session: state.SessionState{
			Name: s.cfg.Name, Statements: s.statements, TotalWork: s.totalWork,
			TransitionCost: s.transitionCost, Changes: s.changes, LastSeq: s.wal.LastSeq(),
		},
	}
	var buf bytes.Buffer
	err := state.Write(&buf, snap)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelRecoveryBitIdentical kills five sessions of one data dir
// mid-stream and recovers them with New, which replays them side by side.
// Each recovered session must match an uninterrupted twin: statements,
// total work to the bit, recommendation, and its registry and exported
// tuner state byte for byte.
func TestParallelRecoveryBitIdentical(t *testing.T) {
	plans := recoveryPlans()
	sqls := recoveryWorkloadSQL(t, 337)
	ref := buildRecoveryDir(t, t.TempDir(), plans, sqls, false)
	defer ref.Close()

	dir := t.TempDir()
	buildRecoveryDir(t, dir, plans, sqls, true)
	for _, p := range plans {
		n := walRecords(t, filepath.Join(dir, "sessions", p.cfg.Name))
		if (n == 0) != p.emptyTail {
			t.Fatalf("setup: session %s left %d WAL records at the kill", p.cfg.Name, n)
		}
	}
	sv, err := New(Config{DataDir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recovering the data dir: %v", err)
	}
	defer sv.Close()
	if got := len(sv.Sessions()); got != len(plans) {
		t.Fatalf("recovered %d sessions, want %d", got, len(plans))
	}
	for _, p := range plans {
		name := p.cfg.Name
		got, ok := sv.Session(name)
		if !ok {
			t.Fatalf("session %s not recovered", name)
		}
		want, _ := ref.Session(name)
		gs, ws := got.Status(), want.Status()
		if gs.Statements != p.cut || gs.Statements != ws.Statements || math.Float64bits(gs.TotalWork) != math.Float64bits(ws.TotalWork) {
			t.Fatalf("%s: recovered %d statements / total work %v, uninterrupted %d / %v",
				name, gs.Statements, gs.TotalWork, ws.Statements, ws.TotalWork)
		}
		gotRec, _, _ := got.Recommendation()
		wantRec, _, _ := want.Recommendation()
		if !gotRec.Equal(wantRec) {
			t.Fatalf("%s: recommendations diverged after parallel recovery:\n  recovered:     %s\n  uninterrupted: %s",
				name, gotRec.Format(got.Registry()), wantRec.Format(want.Registry()))
		}
		if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
			t.Fatalf("%s: registry or tuner state diverged after parallel recovery", name)
		}
	}
}

// TestParallelRecoveryFailsCleanly corrupts two of five snapshots. New
// must fail naming the first in directory order, and close every session
// it did open, each checkpointing its WAL tail away; once the two
// snapshots are repaired, all five recover.
func TestParallelRecoveryFailsCleanly(t *testing.T) {
	plans := recoveryPlans()
	sqls := recoveryWorkloadSQL(t, 337)
	dir := t.TempDir()
	sv := buildRecoveryDir(t, dir, plans, sqls, false)
	want := make(map[string]SessionStatus)
	for _, s := range sv.Sessions() {
		want[s.Name()] = s.Status()
		s.Kill()
	}

	sessDir := func(name string) string { return filepath.Join(dir, "sessions", name) }
	corrupt := []string{plans[1].cfg.Name, plans[3].cfg.Name}
	saved := make(map[string][]byte)
	for _, name := range corrupt {
		path := filepath.Join(sessDir(name), SnapshotFile)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = b
		if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, err := New(Config{DataDir: dir, CheckpointEvery: -1})
	if err == nil || !strings.Contains(err.Error(), "recovering session "+corrupt[0]+":") {
		t.Fatalf("New over two corrupt snapshots: error %v, want one naming %s", err, corrupt[0])
	}
	for _, p := range plans {
		if name := p.cfg.Name; name != corrupt[0] && name != corrupt[1] {
			if n := walRecords(t, sessDir(name)); n != 0 {
				t.Fatalf("session %s holds %d WAL records after the failed start: it was not closed", name, n)
			}
		}
	}

	for name, b := range saved {
		if err := os.WriteFile(filepath.Join(sessDir(name), SnapshotFile), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sv, err = New(Config{DataDir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recovering the repaired data dir: %v", err)
	}
	defer sv.Close()
	for _, p := range plans {
		name := p.cfg.Name
		s, ok := sv.Session(name)
		if !ok {
			t.Fatalf("session %s not recovered from the repaired dir", name)
		}
		got := s.Status()
		if got.Statements != want[name].Statements || math.Float64bits(got.TotalWork) != math.Float64bits(want[name].TotalWork) {
			t.Fatalf("%s: recovered %d statements / total work %v, before the kill %d / %v",
				name, got.Statements, got.TotalWork, want[name].Statements, want[name].TotalWork)
		}
	}
}
