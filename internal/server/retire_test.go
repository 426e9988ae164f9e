package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
)

// retireSessionConfig is testSessionConfig with the bounded-memory knobs
// on: candidates retire after 150 idle statements and every checkpoint
// compacts the registry (logged in the WAL as a RecCompact record).
func retireSessionConfig(name string) SessionConfig {
	cfg := testSessionConfig(name)
	cfg.Options.HistSize = 20
	cfg.Options.RetireAfter = 150
	return cfg
}

// TestCrashRecoveryAcrossCompaction is the kill -9 acceptance test for
// the retirement subsystem: both the reference and the crashed session
// checkpoint (and therefore retire + compact) on the same schedule, the
// crash lands after a compaction boundary with uncovered WAL records on
// disk, and the recovered session must finish bit-identical to the
// reference — total work, transition cost, recommendation, and the full
// exported tuner state.
func TestCrashRecoveryAcrossCompaction(t *testing.T) {
	const total = 520
	const cut = 337 // after the checkpoints (and compactions) at 150 and 300
	sqls := recoveryWorkloadSQL(t, total)
	cat, _ := datagen.Build()

	refDir := filepath.Join(t.TempDir(), "ref")
	ref, err := CreateSession(refDir, cat, retireSessionConfig("ref"))
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, ref, sqls, 0, total, true)

	crashDir := filepath.Join(t.TempDir(), "crash")
	sess, err := CreateSession(crashDir, cat, retireSessionConfig("ref"))
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, sess, sqls, 0, cut, true)
	if got := sess.Status().Retired; got == 0 {
		t.Fatalf("nothing retired before the crash; the test is not exercising compaction")
	}
	sess.Kill()

	recovered, err := OpenSession(crashDir, cat, SessionRuntime{})
	if err != nil {
		t.Fatalf("recovering crashed session: %v", err)
	}
	defer recovered.Close()
	driveSession(t, recovered, sqls, cut, total, true)

	refStatus, gotStatus := ref.Status(), recovered.Status()
	if refStatus.Statements != gotStatus.Statements {
		t.Fatalf("statements: %d vs %d", gotStatus.Statements, refStatus.Statements)
	}
	if math.Float64bits(refStatus.TotalWork) != math.Float64bits(gotStatus.TotalWork) {
		t.Fatalf("total work diverged across compaction recovery: %v vs %v",
			gotStatus.TotalWork, refStatus.TotalWork)
	}
	if refStatus.Retired != gotStatus.Retired || refStatus.RegistrySize != gotStatus.RegistrySize {
		t.Fatalf("memory gauges diverged: retired %d/%d, registry %d/%d",
			gotStatus.Retired, refStatus.Retired, gotStatus.RegistrySize, refStatus.RegistrySize)
	}
	refRec, _, _ := ref.Recommendation()
	gotRec, _, _ := recovered.Recommendation()
	if !refRec.Equal(gotRec) {
		t.Fatalf("recommendations diverged:\n  recovered:     %s\n  uninterrupted: %s",
			gotRec.Format(recovered.Registry()), refRec.Format(ref.Registry()))
	}
	if !reflect.DeepEqual(exportTuner(ref), exportTuner(recovered)) {
		t.Fatalf("full tuner states diverged after recovery across a compaction")
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetireSessionBoundsState drives one retire-enabled session through
// a workload long enough to rotate phases and checks the memory gauges:
// candidates were retired, compaction ran, and the live registry is
// strictly smaller than everything ever mined.
func TestRetireSessionBoundsState(t *testing.T) {
	const total = 450
	sqls := recoveryWorkloadSQL(t, total)
	cat, _ := datagen.Build()
	cfg := retireSessionConfig("bounded")
	cfg.CheckpointEvery = 100
	sess, err := CreateSession(filepath.Join(t.TempDir(), "bounded"), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	for i := 0; i < total; i++ {
		if _, _, err := sess.Ingest(ctx, sqls[i:i+1]); err != nil {
			t.Fatalf("ingest %d: %v", i+1, err)
		}
	}
	st := sess.Status()
	if st.Retired == 0 {
		t.Fatalf("no candidates retired over %d rotating statements", total)
	}
	mined := st.RegistrySize + st.Retired // lower bound: every retiree was interned once
	if st.RegistrySize >= mined {
		t.Fatalf("registry (%d) did not shrink below total mined (%d)", st.RegistrySize, mined)
	}
	if st.UniverseSize > st.RegistrySize {
		t.Fatalf("universe (%d) exceeds live registry (%d)", st.UniverseSize, st.RegistrySize)
	}
}

// TestCheckpointBytesTriggersSnapshot verifies the WAL-size checkpoint
// trigger: with a tiny byte budget every statement lands just past the
// threshold, so the WAL never accumulates records and a reopen replays
// nothing.
func TestCheckpointBytesTriggersSnapshot(t *testing.T) {
	sqls := recoveryWorkloadSQL(t, 20)
	cat, _ := datagen.Build()
	cfg := testSessionConfig("bytes")
	cfg.CheckpointEvery = -1
	cfg.CheckpointBytes = 64 // smaller than any statement record
	dir := filepath.Join(t.TempDir(), "bytes")
	sess, err := CreateSession(dir, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, _, err := sess.Ingest(ctx, sqls[i:i+1]); err != nil {
			t.Fatalf("ingest %d: %v", i+1, err)
		}
	}
	if got := sess.Status().WALBytes; got > 256 {
		t.Fatalf("WAL grew to %d bytes despite the 64-byte checkpoint budget", got)
	}
	sess.Kill()
	recovered, err := OpenSession(dir, cat, SessionRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Status().Statements; got != 20 {
		t.Fatalf("recovered %d statements, want 20", got)
	}
}

// TestSessionConfigValidation covers the knob-validation satellite: a
// non-positive IdxCnt/StateCnt/HistSize used to flow straight into
// NewWindow(cap <= 0) — an unbounded history — and now must be rejected,
// as a ConfigError from CreateSession and a 400 from the HTTP API.
func TestSessionConfigValidation(t *testing.T) {
	cat, _ := datagen.Build()
	// QueueDepth is absent: applyDefaults clamps non-positive depths to
	// the default, which is the documented behavior for that knob.
	muts := []func(*SessionConfig){
		func(c *SessionConfig) { c.Options.IdxCnt = -1 },
		func(c *SessionConfig) { c.Options.StateCnt = -5 },
		func(c *SessionConfig) { c.Options.HistSize = -1 },
		func(c *SessionConfig) { c.Options.RetireAfter = -2 },
		func(c *SessionConfig) { c.CheckpointBytes = -64 },
		func(c *SessionConfig) { c.Options.MaxPartSize = core.MaxPartBits + 1 },
	}
	for i, mut := range muts {
		cfg := testSessionConfig("bad")
		mut(&cfg)
		_, err := CreateSession(filepath.Join(t.TempDir(), "bad"), cat, cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("config %d: want ConfigError, got %v", i, err)
		}
	}

	rig := newAPIRig(t)
	var resp map[string]any
	rig.call("POST", "/sessions", map[string]any{"name": "neg", "hist_size": -1}, http.StatusBadRequest, &resp)
	rig.call("POST", "/sessions", map[string]any{"name": "neg", "idx_cnt": -3}, http.StatusBadRequest, &resp)
	rig.call("POST", "/sessions", map[string]any{"name": "neg", "retire_after": -7}, http.StatusBadRequest, &resp)
	// A valid retire-enabled session still creates fine.
	rig.call("POST", "/sessions", map[string]any{"name": "ok", "retire_after": 200, "checkpoint_bytes": 1 << 20}, http.StatusCreated, &resp)
}

// TestRepliesOutliveCompaction holds a SQL reply, an accept reply and a
// recommendation read across a compacting checkpoint, as a reply being
// encoded while another request on the session checkpoints does. Each
// must still name the indexes it named when the session lock was
// released: the checkpoint renumbers every registry ID, so the replies'
// ID sets, resolved after it, name other indexes.
func TestRepliesOutliveCompaction(t *testing.T) {
	const n = 290
	sqls := recoveryWorkloadSQL(t, n)
	cat, _ := datagen.Build()
	sess, err := CreateSession(filepath.Join(t.TempDir(), "held"), cat, retireSessionConfig("held"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	for i := 0; i < n-1; i++ {
		if _, _, err := sess.Ingest(ctx, sqls[i:i+1]); err != nil {
			t.Fatalf("ingest %d: %v", i+1, err)
		}
	}
	keys := func(defs []indexJSON) []string {
		out := make([]string, len(defs))
		for i, d := range defs {
			out[i] = index.Key(d.Table, d.Columns)
		}
		return out
	}
	// resolve names set's IDs in the registry as it stands now; an ID past
	// a compacted registry names nothing.
	resolve := func(set index.Set) []string {
		out := make([]string, 0, set.Len())
		set.Each(func(id index.ID) {
			if sess.Registry().CheckIDs(id) != nil {
				out = append(out, "<none>")
				return
			}
			out = append(out, sess.Registry().Get(id).Key())
		})
		return out
	}

	sqlRep, err := sess.ingest(ctx, sqls[n-1:])
	if err != nil {
		t.Fatal(err)
	}
	accRep, err := sess.accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rec, create, drop := sess.Recommendation()
	recDefs, createDefs, dropDefs := sess.recommendationDefs()
	held := []struct {
		what string
		set  index.Set
		defs []*index.Index
	}{
		{"SQL reply recommendation", sqlRep.rec, sqlRep.recDefs},
		{"accept reply materialized", accRep.accept.Materialized, accRep.acceptDefs.materialized},
		{"accept reply created", accRep.accept.Created, accRep.acceptDefs.created},
		{"accept reply dropped", accRep.accept.Dropped, accRep.acceptDefs.dropped},
		{"recommendation", rec, recDefs},
		{"would create", create, createDefs},
		{"would drop", drop, dropDefs},
	}
	want := make([][]string, len(held))
	for i, h := range held {
		want[i] = resolve(h.set)
	}
	if sqlRep.rec.Empty() || accRep.accept.Materialized.Empty() {
		t.Fatalf("setup: empty recommendation (%d) or materialization (%d)", sqlRep.rec.Len(), accRep.accept.Materialized.Len())
	}

	regBefore := sess.Registry().Len()
	if _, err := sess.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if regAfter := sess.Registry().Len(); regAfter >= regBefore {
		t.Fatalf("setup: the checkpoint did not compact (registry %d -> %d)", regBefore, regAfter)
	}
	if reflect.DeepEqual(resolve(sqlRep.rec), want[0]) {
		t.Fatalf("setup: the compaction left the recommendation's IDs naming the same indexes")
	}
	for i, h := range held {
		if got := keys(defsJSON(h.defs)); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s after a compacting checkpoint names %v, want %v", h.what, got, want[i])
		}
	}
}
