package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/index"
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
	if _, err := follower.ApplyReplicated(stream[:cut], nil); err != nil {
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
		if _, err := follower.ApplyReplicated(gapped.batch, nil); !errors.As(err, &gap) {
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
	if _, err := follower.ApplyReplicated(stream, nil); err != nil {
		t.Fatalf("overlapping re-ship: %v", err)
	}
	if got := follower.LastSeq(); got != stream[len(stream)-1].Seq {
		t.Fatalf("cursor after full stream: %d, want %d", got, stream[len(stream)-1].Seq)
	}
	// Shipping the whole stream again is a no-op.
	if _, err := follower.ApplyReplicated(stream, nil); err != nil {
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
func (r *recordingShipper) Stats() ShipperStats { return ShipperStats{} }
func (r *recordingShipper) Close() error        { return nil }

// TestStandbyAppliesAcrossCompactions ships a retire-enabled primary's
// whole stream — statements, votes, accepts and several registry
// compactions — to a standby in ONE ApplyReplicated call, and the standby
// must end bit-identical to the primary. The standby runs in a standby
// Server: a session outside one counts as a primary, whose checkpoints
// log compactions of their own.
func TestStandbyAppliesAcrossCompactions(t *testing.T) {
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

	sv, err := NewWithCatalog(Config{DataDir: t.TempDir(), Follower: true}, cat)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	standby, err := sv.CreateSession(pipelineSessionConfig("sc"))
	if err != nil {
		t.Fatal(err)
	}
	compactions := 0
	for _, rec := range ship.recs {
		if rec.Type == state.RecCompact && rec.Seq > standby.LastSeq() {
			compactions++
		}
	}
	if compactions < 2 {
		t.Fatalf("the shipped stream crosses %d compactions, want >= 2", compactions)
	}
	if _, err := standby.ApplyReplicated(ship.recs, nil); err != nil {
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
	t.Logf("standby: %d records, %d compactions", len(ship.recs), compactions)
}

// gateShipper is a synchronous Shipper whose every Commit blocks until the
// test releases it. It keeps every record it is given and counts the
// shipper calls that began while a Commit was in flight.
type gateShipper struct {
	entered chan struct{} // one send per Commit, after it recorded its records
	release chan struct{}

	mu       sync.Mutex
	inCommit bool
	overlaps int
	recs     []state.Record
}

func (g *gateShipper) Commit(recs []state.Record) error {
	g.mu.Lock()
	if g.inCommit {
		g.overlaps++
	}
	g.inCommit = true
	g.recs = append(g.recs, recs...)
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	g.inCommit = false
	g.mu.Unlock()
	return nil
}

func (g *gateShipper) Checkpointed(uint64) {
	g.mu.Lock()
	if g.inCommit {
		g.overlaps++
	}
	g.mu.Unlock()
}

func (g *gateShipper) Stats() ShipperStats { return ShipperStats{} }
func (g *gateShipper) Close() error        { return nil }

// TestPrimaryReplyWaitsForShip holds every Commit of a replicated primary
// and checks that no Ingest, Vote, Accept, Checkpoint or Close returns
// while one is held, although the primary applies the group meanwhile.
// The session is retire-enabled and checkpoints every 7 statements, so
// the stream crosses checkpoints with their compaction records, and
// Batch 3 splits the 4-statement requests into two group commits. No two
// shipper calls may overlap, and every record must reach Commit exactly
// once, in sequence order.
func TestPrimaryReplyWaitsForShip(t *testing.T) {
	const total = 40
	const hold = 20 * time.Millisecond // how long each Commit is held
	sqls := recoveryWorkloadSQL(t, total)
	cat, _ := datagen.Build()
	gate := &gateShipper{entered: make(chan struct{}), release: make(chan struct{})}

	// run calls op on another goroutine and releases every Commit it
	// starts after holding it, failing if op returns while one is held.
	run := func(what string, op func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- op() }()
		for {
			select {
			case <-gate.entered:
				select {
				case err := <-done:
					t.Fatalf("%s returned (error %v) while its ship was held", what, err)
				case <-time.After(hold):
				}
				gate.release <- struct{}{}
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				return
			}
		}
	}

	cfg := testSessionConfig("gate")
	cfg.Options.RetireAfter = 10
	cfg.CheckpointEvery = 7
	var sess *Session
	run("create", func() (err error) {
		sess, err = CreateSessionWith(filepath.Join(t.TempDir(), "gate"), cat, cfg, SessionRuntime{
			Batch:      3,
			NewShipper: func(uint64, []state.Record) Shipper { return gate },
		})
		return err
	})
	ctx := context.Background()
	vote := []state.IndexSpec{{Table: "tpch.lineitem", Columns: []string{"l_shipdate"}}}
	votes, accepts := 0, 0
	for i := 0; i < total; {
		n := 1 + i%5
		end := min(total, i+n)
		run("ingest", func() error { _, _, err := sess.Ingest(ctx, sqls[i:end]); return err })
		i = end
		if i%9 == 0 {
			run("vote", func() error { _, err := sess.Vote(ctx, vote, nil); return err })
			votes++
		}
		if i%11 == 0 {
			run("accept", func() error { _, err := sess.Accept(ctx); return err })
			accepts++
		}
		if i%20 == 0 {
			run("checkpoint", func() error { _, err := sess.Checkpoint(); return err })
		}
	}
	last := sess.LastSeq()
	run("close", sess.Close)

	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.overlaps != 0 {
		t.Fatalf("%d shipper calls began while a Commit was in flight", gate.overlaps)
	}
	count := map[state.RecType]int{}
	for k, rec := range gate.recs {
		if rec.Seq != uint64(k)+1 {
			t.Fatalf("Commit record %d has seq %d, want %d (a record was shipped twice, skipped or out of order)", k, rec.Seq, k+1)
		}
		count[rec.Type]++
	}
	if got := uint64(len(gate.recs)); got != last+1 { // Close logs one more compaction
		t.Fatalf("Commit saw %d records, the session logged %d", got, last+1)
	}
	if count[state.RecStatement] != total || count[state.RecVote] != votes || count[state.RecAccept] != accepts {
		t.Fatalf("Commit saw %d statements, %d votes, %d accepts; want %d, %d, %d",
			count[state.RecStatement], count[state.RecVote], count[state.RecAccept], total, votes, accepts)
	}
	if count[state.RecCompact] < 4 {
		t.Fatalf("Commit saw %d compaction records, want checkpoints to log at least 4", count[state.RecCompact])
	}
}

// shippedStream drives sqls through a primary session and returns every
// record it shipped.
func shippedStream(t *testing.T, sqls []string) []state.Record {
	t.Helper()
	cat, _ := datagen.Build()
	ship := &recordingShipper{}
	primary, err := CreateSessionWith(filepath.Join(t.TempDir(), "p"), cat, testSessionConfig("s"), SessionRuntime{
		NewShipper: func(uint64, []state.Record) Shipper { return ship },
	})
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, primary, sqls, 0, len(sqls), false)
	primary.Kill()
	return ship.recs
}

// newFollowerSession starts a standby server holding one session named
// like shippedStream's.
func newFollowerSession(t *testing.T) (*Server, *Session) {
	t.Helper()
	sv, err := New(Config{DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })
	sess, err := sv.CreateSession(testSessionConfig("s"))
	if err != nil {
		t.Fatal(err)
	}
	return sv, sess
}

// TestStandbyReadsWaitForApply checks the standby's early ack: reads that
// start inside ApplyReplicated's durable callback, before the batch
// applies, must still return the fully applied state, equal to a session
// that applied the same stream. A batch that writes nothing never calls
// the callback.
func TestStandbyReadsWaitForApply(t *testing.T) {
	const total = 30
	stream := shippedStream(t, recoveryWorkloadSQL(t, total))
	_, sess := newFollowerSession(t)
	control, err := CreateSession(filepath.Join(t.TempDir(), "control"), mustCatalog(t), testSessionConfig("s"))
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	if _, err := control.ApplyReplicated(stream, nil); err != nil {
		t.Fatal(err)
	}

	cut := len(stream) / 2
	if _, err := sess.ApplyReplicated(stream[:cut], nil); err != nil {
		t.Fatal(err)
	}
	before := sess.Status()
	mustNotAck := func(seq uint64) { t.Errorf("durable callback fired at seq %d for a batch that writes nothing", seq) }
	garbage := state.Record{Seq: stream[cut].Seq, Type: state.RecStatement, SQL: "SELEKT nothing"}
	for name, batch := range map[string][]state.Record{
		"gap":         stream[cut+1:],
		"unparsable":  {garbage},
		"re-shipped":  stream[:cut],
		"empty batch": nil,
	} {
		_, err := sess.ApplyReplicated(batch, mustNotAck)
		if (name == "gap" || name == "unparsable") && err == nil {
			t.Fatalf("%s batch accepted", name)
		}
		if after := sess.Status(); after.WALSeq != before.WALSeq || after.WALBytes != before.WALBytes || after.Statements != before.Statements {
			t.Fatalf("%s batch reached the session: seq %d -> %d, statements %d -> %d",
				name, before.WALSeq, after.WALSeq, before.Statements, after.Statements)
		}
	}

	type reads struct {
		status SessionStatus
		rec    index.Set
		lag    uint64
	}
	got := make(chan reads, 1)
	acks := 0
	if _, err := sess.ApplyReplicated(stream[cut:], func(uint64) {
		acks++
		var r reads
		var started, done sync.WaitGroup
		started.Add(3)
		done.Add(3)
		go func() { defer done.Done(); started.Done(); r.status = sess.Status() }()
		go func() { defer done.Done(); started.Done(); r.rec, _, _ = sess.Recommendation() }()
		go func() { defer done.Done(); started.Done(); r.lag = sess.ReplicationLag() }()
		go func() { done.Wait(); got <- r }()
		started.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	if acks != 1 {
		t.Fatalf("durable callback fired %d times for one batch", acks)
	}
	r := <-got
	want := control.Status()
	if r.status.Statements != total || r.status.Statements != want.Statements || r.status.WALSeq != want.WALSeq {
		t.Fatalf("a read during the ack saw %d statements at seq %d, want %d at seq %d",
			r.status.Statements, r.status.WALSeq, want.Statements, want.WALSeq)
	}
	if math.Float64bits(r.status.TotalWork) != math.Float64bits(want.TotalWork) {
		t.Fatalf("a read during the ack saw total work %v, want %v", r.status.TotalWork, want.TotalWork)
	}
	if wantRec, _, _ := control.Recommendation(); !r.rec.Equal(wantRec) {
		t.Fatalf("a read during the ack saw recommendation %s, want %s",
			r.rec.Format(sess.Registry()), wantRec.Format(control.Registry()))
	}
	if r.lag != 0 {
		t.Fatalf("a read during the ack saw replication lag %d, want 0", r.lag)
	}
}

// TestPromotedSessionRefusesShip is the zombie-primary fence past the
// handler's check: a shipped batch that reaches a session after its
// server was promoted, and after the promoted node's first write, must be
// refused with ErrPromoted and write nothing — not dropped as an
// already-applied duplicate and acked. A shipped snapshot must not
// replace the session either.
func TestPromotedSessionRefusesShip(t *testing.T) {
	stream := shippedStream(t, recoveryWorkloadSQL(t, 12))
	sv, sess := newFollowerSession(t)
	cut := len(stream) / 2
	if _, err := sess.ApplyReplicated(stream[:cut], nil); err != nil {
		t.Fatal(err)
	}
	sv.Promote()
	// The promoted node's first write takes the old primary's next seq.
	if _, _, err := sess.Ingest(context.Background(), []string{stream[cut+1].SQL}); err != nil {
		t.Fatal(err)
	}
	before := sess.Status()
	if before.WALSeq != stream[cut].Seq {
		t.Fatalf("the promoted node's write landed at seq %d, want %d", before.WALSeq, stream[cut].Seq)
	}
	last, err := sess.ApplyReplicated(stream[cut:cut+1], func(seq uint64) {
		t.Errorf("durable callback fired at seq %d on a promoted node", seq)
	})
	if !errors.Is(err, ErrPromoted) {
		t.Fatalf("a promoted node's session answered a shipped batch with (%d, %v), want ErrPromoted", last, err)
	}
	snap, err := os.ReadFile(filepath.Join(sv.sessionsRoot(), "s", SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.InstallSnapshot(snap); !errors.Is(err, ErrPromoted) {
		t.Fatalf("a promoted node answered a shipped snapshot with %v, want ErrPromoted", err)
	}
	if got, ok := sv.Session("s"); !ok || got != sess {
		t.Fatal("the refused snapshot replaced the promoted node's session")
	}
	after := sess.Status()
	if after.WALSeq != before.WALSeq || after.WALBytes != before.WALBytes || after.Statements != before.Statements ||
		math.Float64bits(after.TotalWork) != math.Float64bits(before.TotalWork) {
		t.Fatalf("the refused batch reached the session: seq %d -> %d, statements %d -> %d",
			before.WALSeq, after.WALSeq, before.Statements, after.Statements)
	}
	if lag := sess.ReplicationLag(); lag != 0 {
		t.Fatalf("the refused batch left a replication lag of %d on a primary", lag)
	}
}
