package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/workload"
)

// workloadSQL renders a deterministic SQL stream of at least n statements.
func workloadSQL(t *testing.T, n int) []string {
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

// replCfg is the session shape the replication tests use: small tuner,
// frequent automatic checkpoints, retirement on — so the shipped stream
// contains statements, votes, accepts, AND in-stream compaction records.
func replCfg(name string, checkpointEvery, retireAfter int) server.SessionConfig {
	o := core.DefaultOptions()
	o.IdxCnt = 16
	o.StateCnt = 200
	o.RetireAfter = retireAfter
	return server.SessionConfig{Name: name, Options: o, CheckpointEvery: checkpointEvery}
}

// drive feeds statements [from, to) with the deterministic DBA schedule
// (vote every 101st, accept every 97th) the recovery tests use.
func drive(t *testing.T, sess *server.Session, sqls []string, from, to int) {
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
	}
}

// node is one wfit-serve process under test: a Server plus its combined
// service+replication HTTP frontend.
type node struct {
	sv *server.Server
	ts *httptest.Server
}

func (n *node) close() { n.ts.Close() }

func newStandby(t *testing.T, cat *catalog.Catalog, dir string) *node {
	t.Helper()
	sv, err := server.NewWithCatalog(server.Config{DataDir: dir, Follower: true}, cat)
	if err != nil {
		t.Fatalf("starting standby: %v", err)
	}
	return &node{sv: sv, ts: httptest.NewServer(standbyHandler(sv))}
}

// standbyHandler is a standby's combined service and replication API.
func standbyHandler(sv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/replication/", replica.NewHandler(sv))
	mux.Handle("/", sv.Handler())
	return mux
}

// newPrimary starts a primary whose every session ships to standbyURL.
func newPrimary(t *testing.T, cat *catalog.Catalog, dir, standbyURL string, client *http.Client, hooks *state.WALHooks) *node {
	t.Helper()
	cfg := server.Config{
		DataDir:  dir,
		WALHooks: hooks,
		NewShipper: func(name, sdir string, base uint64, tail []state.Record) server.Shipper {
			return replica.NewShipper(replica.Config{
				Session: name,
				Dir:     sdir,
				Standby: standbyURL,
				Client:  client,
				Base:    base,
				Backlog: tail,
			})
		},
	}
	sv, err := server.NewWithCatalog(cfg, cat)
	if err != nil {
		t.Fatalf("starting primary: %v", err)
	}
	return &node{sv: sv, ts: httptest.NewServer(sv.Handler())}
}

// assertSameState is the bit-identical differential check: total work and
// transition cost to the bit, WAL sequence, recommendation set, and the
// full exported tuner state.
func assertSameState(t *testing.T, label string, got, want *server.Session) {
	t.Helper()
	gs, ws := got.Status(), want.Status()
	if gs.Statements != ws.Statements {
		t.Fatalf("%s: statements %d, want %d", label, gs.Statements, ws.Statements)
	}
	if math.Float64bits(gs.TotalWork) != math.Float64bits(ws.TotalWork) {
		t.Fatalf("%s: total work diverged: %v (%x) vs %v (%x)", label,
			gs.TotalWork, math.Float64bits(gs.TotalWork), ws.TotalWork, math.Float64bits(ws.TotalWork))
	}
	if math.Float64bits(gs.TransitionCost) != math.Float64bits(ws.TransitionCost) {
		t.Fatalf("%s: transition cost diverged: %v vs %v", label, gs.TransitionCost, ws.TransitionCost)
	}
	if gs.WALSeq != ws.WALSeq {
		t.Fatalf("%s: WAL seq %d, want %d", label, gs.WALSeq, ws.WALSeq)
	}
	gRec, _, _ := got.Recommendation()
	wRec, _, _ := want.Recommendation()
	if !gRec.Equal(wRec) {
		t.Fatalf("%s: recommendations diverged:\n  got:  %s\n  want: %s", label,
			gRec.Format(got.Registry()), wRec.Format(want.Registry()))
	}
	if !reflect.DeepEqual(got.ExportTunerState(), want.ExportTunerState()) {
		t.Fatalf("%s: full tuner states diverged", label)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body) //nolint:errcheck
	return resp, out.Bytes()
}

// TestFailoverPromotionBitIdentical is the acceptance test of the
// replication subsystem: a synchronously replicated primary suffers
// transient ship failures (semi-sync degradation and recovery), then dies
// of a torn WAL write mid-commit; the standby is promoted and must hold
// exactly the acknowledged prefix — bit-identical to a session that ran
// those statements uninterrupted — and keep tuning identically from
// there.
func TestFailoverPromotionBitIdentical(t *testing.T) {
	const ackedCut = 130 // statements acknowledged before the primary dies
	const total = 240
	sqls := workloadSQL(t, total)
	cat, _ := datagen.Build()

	inj := faultinject.New()
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &faultinject.Transport{Inj: inj, Point: "ship"},
	}
	// Two ship attempts fail mid-run: the sync stream degrades to
	// semi-sync (acks without standby confirmation), then the next
	// successful Commit re-ships the pending records and catches up.
	inj.Plan("ship", faultinject.Fault{Kind: faultinject.KindFail, Skip: 40, Count: 2})

	standby := newStandby(t, cat, t.TempDir())
	defer standby.close()
	primary := newPrimary(t, cat, t.TempDir(), standby.ts.URL, client, faultinject.WALHooks(inj, "wal.write", "wal.sync"))
	defer primary.ts.Close()

	sess, err := primary.sv.CreateSession(replCfg("t", 50, 60))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sess, sqls, 0, ackedCut)

	st := sess.Status()
	if st.Replication == nil {
		t.Fatal("primary session reports no replication stats")
	}
	if st.Replication.ShipErrors < 2 {
		t.Fatalf("injected ship failures not recorded: %d errors", st.Replication.ShipErrors)
	}
	if st.Replication.Lag != 0 || st.Replication.Pending != 0 {
		t.Fatalf("sync stream not caught up after fault recovery: lag %d, pending %d",
			st.Replication.Lag, st.Replication.Pending)
	}
	if st.Replication.SnapshotShips == 0 {
		t.Fatal("standby was never snapshot-bootstrapped")
	}

	// While the primary lives, the standby must reject client writes with
	// 503 + Retry-After and serve reads.
	resp, _ := postJSON(t, standby.ts.URL+"/sessions/t/sql", map[string]any{"sql": []string{sqls[0]}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby accepted a write: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("standby 503 carries no Retry-After")
	}
	if rr, err := http.Get(standby.ts.URL + "/sessions/t/recommendation"); err != nil || rr.StatusCode != http.StatusOK {
		t.Fatalf("standby refused a follower read: %v (HTTP %d)", err, rr.StatusCode)
	} else {
		rr.Body.Close()
	}

	// Kill -9 mid-group-commit: the next WAL write tears after 3 bytes.
	// The write is never acknowledged; the session is poisoned; the
	// process is dead.
	inj.Plan("wal.write", faultinject.Fault{Kind: faultinject.KindTorn, KeepBytes: 3})
	if _, _, err := sess.Ingest(context.Background(), sqls[ackedCut:ackedCut+1]); err == nil {
		t.Fatal("ingest over a torn WAL write succeeded")
	}
	sess.Kill()
	primary.ts.Close()

	// Promote the standby over HTTP; the fence must reject any zombie
	// shipping from then on.
	resp, body := postJSON(t, standby.ts.URL+"/replication/promote", struct{}{})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "primary") {
		t.Fatalf("promote failed: HTTP %d %s", resp.StatusCode, body)
	}
	zombie := replica.NewShipper(replica.Config{Session: "t", Dir: t.TempDir(), Standby: standby.ts.URL})
	if err := zombie.Commit([]state.Record{{Seq: 1, Type: state.RecAccept}}); err == nil {
		t.Fatal("promoted standby accepted a zombie primary's stream")
	}
	zombie.Close()

	// The promoted standby holds exactly the acknowledged prefix,
	// bit-identical to an uninterrupted run of those statements.
	promoted, ok := standby.sv.Session("t")
	if !ok {
		t.Fatal("promoted standby has no session t")
	}
	if got := promoted.Status().Statements; got != ackedCut {
		t.Fatalf("promoted standby has %d statements, want the acked prefix %d", got, ackedCut)
	}
	controlDir := filepath.Join(t.TempDir(), "control")
	control, err := server.CreateSession(controlDir, cat, replCfg("t", 50, 60))
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	drive(t, control, sqls, 0, ackedCut)
	assertSameState(t, "after promotion", promoted, control)

	// The promoted node keeps tuning: writes are accepted (the gate is
	// open) and the trajectory stays identical to the control.
	resp, body = postJSON(t, standby.ts.URL+"/sessions/t/sql", map[string]any{"sql": []string{sqls[ackedCut]}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted standby rejected a write: HTTP %d %s", resp.StatusCode, body)
	}
	if _, _, err := control.Ingest(context.Background(), sqls[ackedCut:ackedCut+1]); err != nil {
		t.Fatal(err)
	}
	drive(t, promoted, sqls, ackedCut+1, total)
	drive(t, control, sqls, ackedCut+1, total)
	assertSameState(t, "after continued tuning", promoted, control)
}

// TestLateJoinerSnapshotBootstrap attaches a standby that missed the
// session's whole history past a checkpoint: every ship failed while the
// standby was partitioned away, and the checkpoints dropped the records
// they cover, so the stream cannot continue incrementally. The write that
// heals the partition must bootstrap the standby from the snapshot and
// ship the tail before it returns — zero lag, the primary's exact state.
func TestLateJoinerSnapshotBootstrap(t *testing.T) {
	const total = 80
	sqls := workloadSQL(t, total)
	cat, _ := datagen.Build()

	inj := faultinject.New()
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &faultinject.Transport{Inj: inj, Point: "ship"},
	}
	// The standby is unreachable for the first stretch of the session's
	// life (every ship attempt drops), long past a checkpoint.
	inj.Plan("ship", faultinject.Fault{Kind: faultinject.KindFail, Count: 100000})

	standby := newStandby(t, cat, t.TempDir())
	defer standby.close()
	primary := newPrimary(t, cat, t.TempDir(), standby.ts.URL, client, nil)
	defer primary.ts.Close()

	sess, err := primary.sv.CreateSession(replCfg("t", 30, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Every partitioned write is acked from local durability, and its
	// failed ship is counted.
	drive(t, sess, sqls, 0, total-1)
	if st := sess.Status(); st.Replication.ShipErrors == 0 {
		t.Fatal("partition recorded no ship errors")
	}

	// The partition heals: the next write finds the standby without the
	// session, bootstraps it from the snapshot and ships the tail.
	inj.Clear("ship")
	drive(t, sess, sqls, total-1, total)
	st := sess.Status()
	if st.Replication.Lag != 0 || st.Replication.Pending != 0 {
		t.Fatalf("standby not caught up when the healing write returned: lag %d, pending %d",
			st.Replication.Lag, st.Replication.Pending)
	}
	if st.Replication.SnapshotShips == 0 {
		t.Fatal("late joiner was not snapshot-bootstrapped")
	}

	follower, ok := standby.sv.Session("t")
	if !ok {
		t.Fatal("standby has no session t after bootstrap")
	}
	assertSameState(t, "late joiner", follower, sess)

	// The replication status endpoint reports the follower's cursor.
	resp, err := http.Get(standby.ts.URL + "/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Role     string `json:"role"`
		Sessions []struct {
			Name    string `json:"name"`
			LastSeq uint64 `json:"last_seq"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Role != "standby" || len(status.Sessions) != 1 || status.Sessions[0].LastSeq != sess.LastSeq() {
		t.Fatalf("replication status wrong: %+v (primary at %d)", status, sess.LastSeq())
	}
}

// TestStandbyTornTailRepairAndReshipDedup crashes a standby with a torn
// WAL tail, restarts it (the follower repairs the tail exactly like a
// primary recovery would), and re-ships the full stream: the repaired
// records must not double-apply — only the truncated suffix lands.
func TestStandbyTornTailRepairAndReshipDedup(t *testing.T) {
	const total = 40
	sqls := workloadSQL(t, total)
	cat, _ := datagen.Build()

	standbyDir := t.TempDir()
	primaryDir := t.TempDir()
	standby := newStandby(t, cat, standbyDir)
	primary := newPrimary(t, cat, primaryDir, standby.ts.URL, nil, nil)
	defer primary.ts.Close()

	// Checkpoints off on both sides: the full stream stays in both WALs,
	// so the test can tear a record out and re-ship everything.
	sess, err := primary.sv.CreateSession(replCfg("t", -1, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < total; i++ {
		if _, _, err := sess.Ingest(ctx, sqls[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	follower, ok := standby.sv.Session("t")
	if !ok {
		t.Fatal("standby has no session t")
	}
	if got := follower.Status().Statements; got != total {
		t.Fatalf("standby has %d statements before the crash, want %d", got, total)
	}

	// Crash the standby and tear its WAL tail: the last 3 bytes of the
	// final record never made it to disk.
	standby.ts.Close()
	follower.Kill()
	walPath := filepath.Join(standbyDir, "sessions", "t", "wal.log")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Follower restart: recovery repairs the torn tail, losing exactly
	// the final record.
	restarted := newStandby(t, cat, standbyDir)
	defer restarted.close()
	follower, ok = restarted.sv.Session("t")
	if !ok {
		t.Fatal("restarted standby lost session t")
	}
	if got := follower.Status().Statements; got != total-1 {
		t.Fatalf("restarted standby has %d statements, want %d (torn tail repaired)", got, total-1)
	}

	// Re-ship the ENTIRE stream, as a primary with a full retry buffer
	// would after losing its acks: the follower must dedup the repaired
	// prefix by sequence number and apply only the missing record.
	var stream []state.Record
	sess.Kill()
	pwal, err := state.OpenWAL(filepath.Join(primaryDir, "sessions", "t", "wal.log"), func(rec state.Record) error {
		stream = append(stream, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pwal.Close()
	if len(stream) != total {
		t.Fatalf("primary WAL has %d records, want %d", len(stream), total)
	}
	url := fmt.Sprintf("%s/replication/sessions/t/wal", restarted.ts.URL)
	for round := 0; round < 2; round++ { // twice: the re-ship itself must also be idempotent
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(state.EncodeRecords(stream)))
		if err != nil {
			t.Fatal(err)
		}
		// Round 0 is acked before its record applies, round 1 after the
		// call returns; both must carry a Content-Length, or the early
		// ack would go out chunked and the shipper would wait for the
		// handler to finish.
		if resp.ContentLength <= 0 {
			t.Fatalf("re-ship round %d: reply has Content-Length %d", round, resp.ContentLength)
		}
		var rep struct {
			LastSeq uint64 `json:"last_seq"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || rep.LastSeq != stream[total-1].Seq {
			t.Fatalf("re-ship round %d: HTTP %d, cursor %d (want %d)", round, resp.StatusCode, rep.LastSeq, stream[total-1].Seq)
		}
	}
	if got := follower.Status().Statements; got != total {
		t.Fatalf("after re-ship standby has %d statements, want %d (duplicates applied?)", got, total)
	}
}

// TestStandbyRestartKeepsPrimaryStream is the regression test for a
// standby whose graceful shutdown checkpoint, with retirement on, logged
// a compaction record of its own at the primary's next sequence number:
// once restarted, it dropped the primary's record at that number as
// already applied, silently losing an acked write. A sync standby closed
// and reopened on the same directory mid-stream must end bit-identical to
// its primary.
func TestStandbyRestartKeepsPrimaryStream(t *testing.T) {
	const half, total = 40, 80
	sqls := workloadSQL(t, total)
	cat, _ := datagen.Build()
	standbyDir := t.TempDir()
	open := func() *server.Server {
		sv, err := server.NewWithCatalog(server.Config{DataDir: standbyDir, Follower: true}, cat)
		if err != nil {
			t.Fatalf("starting standby: %v", err)
		}
		return sv
	}
	// The primary ships to one URL across the restart; it reaches
	// whichever standby process is current.
	var current atomic.Pointer[http.Handler]
	serve := func(sv *server.Server) {
		h := standbyHandler(sv)
		current.Store(&h)
	}
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	defer front.Close()
	standby := open()
	serve(standby)

	primary := newPrimary(t, cat, t.TempDir(), front.URL, nil, nil)
	defer primary.close()
	sess, err := primary.sv.CreateSession(replCfg("t", 1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sess, sqls, 0, half)

	// The daemon's SIGTERM path: a graceful close, then a restart on the
	// same data directory.
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	standby = open()
	defer standby.Close()
	serve(standby)

	drive(t, sess, sqls, half, total)
	follower, ok := standby.Session("t")
	if !ok {
		t.Fatal("restarted standby has no session t")
	}
	assertSameState(t, "restarted standby", follower, sess)
}

// TestRetireSessionCreationShipsCleanly is the regression test for a
// retire-enabled session created on a replicated primary: its creation
// checkpoint logged and shipped a compaction record before the snapshot a
// standby without the session bootstraps from existed, so the first ship
// always failed and ship_errors read 1 before any write. Creation must
// ship nothing that fails, and the pair must then stay bit-identical.
func TestRetireSessionCreationShipsCleanly(t *testing.T) {
	const total = 60
	sqls := workloadSQL(t, total)
	cat, _ := datagen.Build()
	standby := newStandby(t, cat, t.TempDir())
	defer standby.close()
	primary := newPrimary(t, cat, t.TempDir(), standby.ts.URL, nil, nil)
	defer primary.close()

	sess, err := primary.sv.CreateSession(replCfg("t", 20, 5))
	if err != nil {
		t.Fatal(err)
	}
	if errs := sess.Status().Replication.ShipErrors; errs != 0 {
		t.Fatalf("session creation failed %d ships", errs)
	}
	drive(t, sess, sqls, 0, total)
	follower, ok := standby.sv.Session("t")
	if !ok {
		t.Fatal("standby has no session t")
	}
	assertSameState(t, "standby", follower, sess)
}

// TestStandbyBehindAckedCursorResyncs is the regression test for a
// standby that comes back behind the cursor its primary holds: the
// primary had dropped the records the standby confirmed, so the next
// write drew a snapshot, gapped on the chunk after it, drew the snapshot
// again, and waited on that ship forever — and so did every later write
// on the session. A standby restarted on an older copy of its data dir
// must resume from its own cursor without a snapshot, and one restarted
// on an empty data dir must be bootstrapped exactly once; either way the
// write returns with the pair bit-identical.
func TestStandbyBehindAckedCursorResyncs(t *testing.T) {
	const copied, acked = 25, 30 // checkpoints every 20 statements
	sqls := workloadSQL(t, acked+1)
	cat, _ := datagen.Build()
	for _, tc := range []struct {
		name      string
		wiped     bool
		posts     int64 // ship round trips the resyncing write makes
		snapshots int64
	}{
		{name: "rolled back", posts: 2},
		{name: "wiped", wiped: true, posts: 3, snapshots: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The primary ships to one URL across the restart; it reaches
			// whichever standby is current.
			var current atomic.Pointer[server.Server]
			var posts atomic.Int64
			front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				posts.Add(1)
				standbyHandler(current.Load()).ServeHTTP(w, r)
			}))
			defer front.Close()
			standbyDir := t.TempDir()
			current.Store(newStandby(t, cat, standbyDir).sv)

			primary := newPrimary(t, cat, t.TempDir(), front.URL, nil, nil)
			defer primary.close()
			sess, err := primary.sv.CreateSession(replCfg("t", 20, 0))
			if err != nil {
				t.Fatal(err)
			}
			drive(t, sess, sqls, 0, copied)
			follower, ok := current.Load().Session("t")
			if !ok {
				t.Fatal("standby has no session t")
			}
			follower.LastSeq() // waits out the apply of the last shipped batch
			copyDir := filepath.Join(t.TempDir(), "copy")
			if err := os.CopyFS(copyDir, os.DirFS(standbyDir)); err != nil {
				t.Fatal(err)
			}
			drive(t, sess, sqls, copied, acked)

			// kill -9 the standby, then restart it on the copy taken at
			// statement 25 or on an empty data dir.
			follower.Kill()
			restartDir := copyDir
			if tc.wiped {
				restartDir = t.TempDir()
			}
			current.Store(newStandby(t, cat, restartDir).sv)
			before := sess.Status().Replication
			posts.Store(0)

			done := make(chan error, 1)
			go func() {
				_, _, err := sess.Ingest(context.Background(), sqls[acked:acked+1])
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(15 * time.Second):
				t.Fatalf("the write after the standby restart never returned (%d ship round trips)", posts.Load())
			}
			st := sess.Status().Replication
			if got := st.SnapshotShips - before.SnapshotShips; got != tc.snapshots {
				t.Fatalf("resync shipped %d snapshots, want %d", got, tc.snapshots)
			}
			if got := posts.Load(); got != tc.posts {
				t.Fatalf("resync took %d ship round trips, want %d", got, tc.posts)
			}
			if st.Lag != 0 || st.Pending != 0 || st.ShipErrors != before.ShipErrors {
				t.Fatalf("resync left lag %d, pending %d, ship errors %d (were %d)",
					st.Lag, st.Pending, st.ShipErrors, before.ShipErrors)
			}
			follower, ok = current.Load().Session("t")
			if !ok {
				t.Fatal("restarted standby has no session t")
			}
			assertSameState(t, tc.name, follower, sess)
		})
	}
}
