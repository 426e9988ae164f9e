package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ibg"
	"repro/internal/index"
	"repro/internal/interaction"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/state"
	"repro/internal/stmt"
	"repro/internal/tuner"
	"repro/internal/whatif"
)

// The file names of a session directory, as internal/server lays it out:
// the replica shipper bootstraps a standby from the snapshot file, and
// server.OpenSession recovers from both.
const (
	snapshotFile = "state.snap"
	walFile      = "wal.log"
)

// Daemon defaults the layer pass reproduces (wfit-serve's -queue and
// -batch flag defaults).
const (
	daemonQueueDepth = 256
	daemonBatch      = 64
)

// layerCounts are the layer pass's counters: work done as counts, where
// timing alone would not say how much work a layer did.
type layerCounts struct {
	statements    int
	candidates    int // Σ mined candidates (side copy)
	mineMisses    int // side-copy peeks that found an un-interned candidate
	whatifPerStmt dist
	whatifCalls   int64
	whatifHits    int64
	// Speculated statements, by outcome: consumed, stale at apply (the
	// service recomputes without waiting), or thrown away by
	// ApplyAnalysis after the Run.
	speculated     int
	specConsumed   int
	specStale      int
	specFellBack   int
	walBytes       int64
	snapshotBytes  int64
	snapshotMax    int64
	lagMax         uint64
	sideAllocBytes uint64
	sideAllocObjs  uint64
	recoverMS      []float64
	repartitions   int
	states         int
	universe       int
}

// layerSession replays one session's inputs through the layers' public
// functions, in the order internal/server's apply path calls them.
type layerSession struct {
	w      Workload
	name   string
	dir    string
	tr     *tracer
	cat    *catalog.Catalog
	reg    *index.Registry
	model  *cost.Model
	opt    *whatif.Optimizer
	parser *sqlmini.Parser
	eng    tuner.Engine
	wal    *state.WAL
	fsync  bool
	// pipeline is the daemon's speculation width (0: off), resolved as the
	// session resolves it.
	pipeline int

	shipper  *replica.Shipper
	shipSpan atomic.Int64 // the Commit span the shipper's requests belong to
	walSpan  int64        // the AppendBatch span an OnCommit belongs to

	// The side copy: mining and IBG build are timed against their own
	// model and optimizer, so the engine's spans and what-if counters are
	// exactly what the service would see.
	sideOpt *whatif.Optimizer
	sideExt *cost.Extractor

	statements     int
	totalWork      float64
	transitionCost float64
	changes        int
	materialized   index.Set
	sinceCkpt      int

	c *layerCounts
}

// sessionOptions are the tuner options wfit-serve gives a session created
// with the workload's knobs: the daemon's flag defaults, the core
// defaults, and the seed derived from the session name.
func sessionOptions(w Workload, name string) core.Options {
	o := core.DefaultOptions()
	o.IdxCnt = w.Knobs.IdxCnt
	o.StateCnt = w.Knobs.StateCnt
	o.RetireAfter = w.Knobs.RetireAfter
	o.Seed = server.NameSeed(name)
	return o
}

func newLayerSession(w Workload, name, dir string, cat *catalog.Catalog, sf serveFlags, followerURL string, tr *tracer, c *layerCounts) (*layerSession, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg := index.NewRegistry()
	model := cost.NewModel(cat, reg, cost.DefaultParams())
	opt := whatif.New(model)
	eng, err := tuner.New(tuner.KindWFIT, opt, sessionOptions(w, name))
	if err != nil {
		return nil, err
	}
	wal, err := state.OpenWAL(filepath.Join(dir, walFile), nil)
	if err != nil {
		return nil, err
	}
	fsync := sf.Fsync
	wal.Fsync = fsync
	pipeline := sf.Pipeline
	if pipeline < 0 {
		pipeline = runtime.NumCPU()
	}
	sideModel := cost.NewModel(cat, reg, cost.DefaultParams())
	ls := &layerSession{
		w: w, name: name, dir: dir, tr: tr, cat: cat, reg: reg, model: model, opt: opt,
		parser: sqlmini.NewParser(cat), eng: eng, wal: wal, fsync: fsync, pipeline: pipeline,
		sideOpt: whatif.New(sideModel), sideExt: cost.NewExtractor(sideModel),
		materialized: index.EmptySet, c: c,
	}
	wal.OnCommit = func(flush, sync time.Duration, records int, bytes int64) {
		c.walBytes += bytes
		if fsync {
			end := tr.ns(time.Now())
			tr.add(span{ID: tr.newID(), Parent: ls.walSpan, Name: "state.fsync", Session: name, StartNS: end - sync.Nanoseconds(), EndNS: end})
		}
	}
	if followerURL != "" {
		ls.shipper = replica.NewShipper(replica.Config{
			Session: name,
			Dir:     dir,
			Standby: followerURL,
			Sync:    true,
			Client: &http.Client{Timeout: 10 * time.Second, Transport: &spanTransport{
				base: http.DefaultTransport, parent: ls.shipSpan.Load,
			}},
		})
	}
	// Creation writes the initial snapshot through the checkpoint path,
	// exactly as server.CreateSessionWith does.
	if err := ls.checkpoint(0); err != nil {
		return nil, err
	}
	return ls, state.SyncDir(filepath.Dir(dir))
}

// appendAndShip group-commits records to the WAL and offers them to the
// standby, as one chunk of the service's apply loop does.
func (ls *layerSession) appendAndShip(recs []state.Record, parent int64, pos, stmts int) error {
	s := span{ID: ls.tr.newID(), Parent: parent, Name: "state.wal_append", Session: ls.name, Pos: pos, Stmts: stmts}
	ls.walSpan = s.ID
	start := time.Now()
	_, err := ls.wal.AppendBatch(recs)
	s.StartNS, s.EndNS = ls.tr.ns(start), ls.tr.ns(time.Now())
	ls.tr.add(s)
	if err != nil {
		return fmt.Errorf("WAL append: %w", err)
	}
	if ls.shipper == nil {
		return nil
	}
	if st := ls.shipper.Stats(); ls.wal.LastSeq() > st.AckedSeq && ls.wal.LastSeq()-st.AckedSeq > ls.c.lagMax {
		ls.c.lagMax = ls.wal.LastSeq() - st.AckedSeq
	}
	ship := span{ID: ls.tr.newID(), Parent: parent, Name: "replica.ship", Session: ls.name, Pos: pos, Stmts: stmts}
	ls.shipSpan.Store(ship.ID)
	start = time.Now()
	// A ship failure never fails the local write (semi-sync); the standby
	// gate at the end of the pass catches a stream that did not converge.
	ls.shipper.Commit(recs) //nolint:errcheck // counted in the shipper's stats
	ship.StartNS, ship.EndNS = ls.tr.ns(start), ls.tr.ns(time.Now())
	ls.tr.add(ship)
	return nil
}

// request replays one POST .../sql: parse, then group commits cut at
// checkpoint boundaries, each applied statement by statement.
func (ls *layerSession) request(sqls []string, pos int) error {
	req := span{ID: ls.tr.newID(), Name: "layer.sql", Session: ls.name, Pos: pos, Stmts: len(sqls)}
	start := time.Now()
	sts := make([]*stmt.Statement, len(sqls))
	for i, sql := range sqls {
		var err error
		ls.tr.timed("sqlmini.parse", req.ID, ls.name, pos+i, 1, func() { sts[i], err = ls.parser.Parse(sql) })
		if err != nil {
			return fmt.Errorf("statement %d: %w", pos+i+1, err)
		}
		sts[i].ID = ls.statements + i + 1
	}
	for i := 0; i < len(sts); {
		n, due := ls.cut(len(sts) - i)
		recs := make([]state.Record, n)
		for k := range recs {
			recs[k] = state.Record{Type: state.RecStatement, SQL: sqls[i+k]}
		}
		if err := ls.appendAndShip(recs, req.ID, pos+i, n); err != nil {
			return err
		}
		ls.applyChunk(sts[i:i+n], req.ID, pos+i)
		if due {
			if err := ls.checkpoint(req.ID); err != nil {
				return err
			}
		}
		i += n
	}
	req.StartNS, req.EndNS = ls.tr.ns(start), ls.tr.ns(time.Now())
	ls.tr.add(req)
	return nil
}

// cut mirrors the service's chunking: up to the batch bound, ending early
// at the statement that makes a checkpoint due.
func (ls *layerSession) cut(remaining int) (int, bool) {
	n := min(remaining, daemonBatch)
	for k := 0; k < n; k++ {
		if ls.w.Knobs.CheckpointEvery > 0 && ls.sinceCkpt+k+1 >= ls.w.Knobs.CheckpointEvery {
			return k + 1, true
		}
	}
	return n, false
}

// applyChunk applies one group commit's statements in order. Where the
// daemon speculates (a -pipeline width, and at least two statements in
// the chunk), it keeps the session's capture window: statement k is
// captured just before statement k-width+1 is applied, so a capture goes
// stale exactly when the service's does.
func (ls *layerSession) applyChunk(sts []*stmt.Statement, parent int64, pos int) {
	var specs []tuner.Analysis
	if ls.pipeline > 0 && len(sts) >= 2 {
		specs = make([]tuner.Analysis, len(sts))
	}
	next := 0
	for k, st := range sts {
		var spec tuner.Analysis
		if specs != nil {
			for ; next < len(sts) && next < k+ls.pipeline; next++ {
				specs[next] = ls.eng.BeginAnalysis(sts[next], 1)
			}
			spec = specs[k]
		}
		ls.applyStatement(st, spec, parent, pos+k)
	}
}

// analyze runs the statement's analysis the way the service's apply path
// does: the serial AnalyzeQuery (one worker per CPU), or a speculative
// capture's Run and ApplyAnalysis. Its run and fold are split as the
// engine reports them (LastAnalysisDurations), the split the service's
// own trace uses; a speculative Run that ApplyAnalysis threw away is a
// core.spec_discarded span.
func (ls *layerSession) analyze(st *stmt.Statement, spec tuner.Analysis, parent int64, pos int) {
	start := time.Now()
	runStart := start
	switch {
	case spec == nil:
		ls.eng.AnalyzeQuery(st)
	case !ls.eng.AnalysisValid(spec):
		// Stale before it was consumed: the service recomputes at once and
		// reaps the doomed Run off the apply path, so it is not run here.
		ls.c.specStale++
		spec.Discard()
		ls.eng.AnalyzeQuery(st)
	default:
		spec.Run()
		ran := time.Now()
		if ls.eng.ApplyAnalysis(spec) {
			ls.c.specConsumed++
		} else {
			// The Run met a candidate not interned yet; ApplyAnalysis
			// analyzed the statement again, serially.
			ls.c.specFellBack++
			ls.tr.add(span{ID: ls.tr.newID(), Parent: parent, Name: "core.spec_discarded", Session: ls.name, Pos: pos, Stmts: 1,
				StartNS: ls.tr.ns(start), EndNS: ls.tr.ns(ran)})
			runStart = ran
		}
	}
	end := time.Now()
	run, finish := ls.eng.LastAnalysisDurations()
	runNS, endNS := ls.tr.ns(runStart), ls.tr.ns(end)
	ls.tr.add(span{ID: ls.tr.newID(), Parent: parent, Name: "core.run", Session: ls.name, Pos: pos, Stmts: 1,
		StartNS: runNS, EndNS: runNS + run.Nanoseconds()})
	ls.tr.add(span{ID: ls.tr.newID(), Parent: parent, Name: "core.apply", Session: ls.name, Pos: pos, Stmts: 1,
		StartNS: endNS - finish.Nanoseconds(), EndNS: endNS})
}

// applyStatement is the per-statement apply path: the analysis, then the
// statement's cost under the materialized configuration.
func (ls *layerSession) applyStatement(st *stmt.Statement, spec tuner.Analysis, parent int64, pos int) {
	calls0, hits0 := ls.opt.Calls(), ls.opt.Hits()
	if spec != nil {
		ls.c.speculated++
	}
	ls.analyze(st, spec, parent, pos)
	ls.statements++
	var c float64
	ls.tr.timed("whatif.cost", parent, ls.name, pos, 1, func() { c = ls.opt.Cost(st, ls.materialized) })
	ls.totalWork += c
	ls.sinceCkpt++
	calls := ls.opt.Calls() - calls0
	ls.c.whatifPerStmt.add(float64(calls))
	ls.c.whatifCalls += calls
	ls.c.whatifHits += ls.opt.Hits() - hits0
	ls.c.statements++
	ls.sideCopy(st, pos)
}

// partitioned is the part of the WFIT engine the side copy reads.
type partitioned interface {
	Partition() interaction.Partition
}

// sideCopy times candidate mining and the IBG build for the statement
// just applied, off the engine: every candidate is interned by now, so
// Peek sees what the engine mined.
func (ls *layerSession) sideCopy(st *stmt.Statement, pos int) {
	b0, o0 := readAllocs()
	var cands index.Set
	var ok bool
	ls.tr.timed("cost.mine", 0, ls.name, pos, 1, func() { cands, ok = ls.sideExt.Peek(st) })
	if !ok {
		ls.c.mineMisses++
	} else {
		ls.c.candidates += cands.Len()
		ctx := cands.Union(ls.eng.Materialized())
		if p, isPart := ls.eng.(partitioned); isPart {
			ctx = ctx.Union(p.Partition().Union())
		}
		// The fan-out of the service's own build: one worker per CPU on the
		// serial path, one in a speculative capture.
		workers := 0
		if ls.pipeline > 0 {
			workers = 1
		}
		ls.tr.timed("ibg.build", 0, ls.name, pos, 1, func() {
			g := ibg.BuildWorkers(ls.sideOpt, st, ctx, workers)
			g.Release()
		})
	}
	b1, o1 := readAllocs()
	ls.c.sideAllocBytes += b1 - b0
	ls.c.sideAllocObjs += o1 - o0
}

// checkpoint mirrors the service's checkpoint: for retiring sessions a
// logged and shipped compaction, then the snapshot and the WAL reset.
func (ls *layerSession) checkpoint(parent int64) error {
	if ls.w.Knobs.RetireAfter > 0 {
		rec := []state.Record{{Type: state.RecCompact}}
		if err := ls.appendAndShip(rec, parent, 0, 0); err != nil {
			return err
		}
		ls.tr.timed("core.compact", parent, ls.name, 0, 0, func() { ls.eng.CompactRegistry() })
		ls.materialized = ls.eng.Materialized()
		ls.sideOpt.Invalidate()
	}
	path := filepath.Join(ls.dir, snapshotFile)
	var err error
	ls.tr.timed("state.snapshot", parent, ls.name, 0, 0, func() {
		err = state.WriteFile(path, &state.Snapshot{
			Defs:  state.CaptureRegistry(ls.reg),
			Tuner: ls.eng.ExportState(),
			Session: state.SessionState{
				Name:            ls.name,
				Statements:      ls.statements,
				TotalWork:       ls.totalWork,
				TransitionCost:  ls.transitionCost,
				Changes:         ls.changes,
				LastSeq:         ls.wal.LastSeq(),
				QueueDepth:      daemonQueueDepth,
				CheckpointEvery: ls.w.Knobs.CheckpointEvery,
			},
		})
	})
	if err != nil {
		return fmt.Errorf("writing snapshot: %w", err)
	}
	if fi, err := os.Stat(path); err == nil {
		ls.c.snapshotBytes += fi.Size()
		ls.c.snapshotMax = max(ls.c.snapshotMax, fi.Size())
	}
	ls.tr.timed("state.wal_reset", parent, ls.name, 0, 0, func() { err = ls.wal.Reset() })
	if err != nil {
		return fmt.Errorf("resetting WAL: %w", err)
	}
	ls.sinceCkpt = 0
	if ls.shipper != nil {
		ls.shipper.Checkpointed(ls.wal.LastSeq())
	}
	return nil
}

// read is the DBA's recommendation read, in the reply's shape.
func (ls *layerSession) read() recommendation {
	var rec index.Set
	ls.tr.timed("core.recommend", 0, ls.name, 0, 0, func() { rec = ls.eng.Recommend() })
	return recommendation{
		Recommendation: ls.specs(rec),
		WouldCreate:    ls.specs(rec.Minus(ls.materialized)),
		WouldDrop:      ls.specs(ls.materialized.Minus(rec)),
	}
}

func (ls *layerSession) specs(s index.Set) []indexSpec {
	out := []indexSpec{}
	s.Each(func(id index.ID) {
		def := ls.reg.Get(id)
		out = append(out, indexSpec{Table: def.Table, Columns: append([]string(nil), def.Columns...)})
	})
	return out
}

// vote logs, ships and applies a DBA vote, interning its indexes at the
// vote's position in the event order.
func (ls *layerSession) vote(plus, minus []indexSpec) error {
	toState := func(in []indexSpec) []state.IndexSpec {
		out := make([]state.IndexSpec, 0, len(in))
		for _, s := range in {
			out = append(out, state.IndexSpec{Table: s.Table, Columns: s.Columns})
		}
		return out
	}
	p, m := toState(plus), toState(minus)
	for _, spec := range append(append([]state.IndexSpec{}, p...), m...) {
		if err := server.ValidateSpec(ls.cat, spec); err != nil {
			return err
		}
	}
	if err := ls.appendAndShip([]state.Record{{Type: state.RecVote, Plus: p, Minus: m}}, 0, 0, 0); err != nil {
		return err
	}
	resolve := func(specs []state.IndexSpec) index.Set {
		var ids []index.ID
		for _, spec := range specs {
			id, ok := ls.reg.Lookup(spec.Table, spec.Columns)
			if !ok {
				id = ls.reg.Intern(cost.BuildIndexProto(ls.cat, ls.model.Params(), spec.Table, spec.Columns))
			}
			ids = append(ids, id)
		}
		return index.NewSet(ids...)
	}
	ps, ms := resolve(p), resolve(m)
	ls.tr.timed("core.feedback", 0, ls.name, 0, 0, func() { ls.eng.Feedback(ps, ms) })
	return nil
}

// accept logs, ships and applies an accept: materialize the
// recommendation, charge the transition, and feed the implicit votes.
func (ls *layerSession) accept() error {
	if err := ls.appendAndShip([]state.Record{{Type: state.RecAccept}}, 0, 0, 0); err != nil {
		return err
	}
	rec := ls.eng.Recommend()
	created := rec.Minus(ls.materialized)
	dropped := ls.materialized.Minus(rec)
	if !rec.Equal(ls.materialized) {
		delta := ls.reg.Delta(ls.materialized, rec)
		ls.totalWork += delta
		ls.transitionCost += delta
		ls.changes++
	}
	ls.materialized = rec
	ls.eng.SetMaterialized(rec)
	ls.tr.timed("core.feedback", 0, ls.name, 0, 0, func() { ls.eng.Feedback(created, dropped) })
	return nil
}

// replay drives the session's whole input with the DBA at the same
// positions as the clients, then recovers the session from its files.
func (ls *layerSession) replay(in sessionInput) error {
	d := ls.w.DBA
	for k := 0; k < len(in.SQL); {
		end := min(k+ls.w.PerRequest, len(in.SQL))
		if err := ls.request(in.SQL[k:end], k); err != nil {
			return err
		}
		k = end
		var rec recommendation
		if due(k, d.ReadEvery) {
			rec = ls.read()
		}
		if due(k, d.VoteEvery) {
			if plus, minus, ok := chooseVote(k/d.VoteEvery-1, rec); ok {
				if err := ls.vote(plus, minus); err != nil {
					return err
				}
			}
		}
		if due(k, d.AcceptEvery) {
			if err := ls.accept(); err != nil {
				return err
			}
		}
	}
	es := ls.eng.Status()
	ls.c.repartitions += es.Repartitions
	ls.c.states += es.States
	ls.c.universe += es.UniverseSize
	return nil
}

// recover closes the pass's files as a crash would leave them and times
// server.OpenSession over them; the recovered session must hold the
// pass's statements and total work, bit for bit.
func (ls *layerSession) recover() error {
	if ls.shipper != nil {
		ls.shipper.Close() //nolint:errcheck // Close never fails
	}
	if err := ls.wal.Close(); err != nil {
		return err
	}
	start := time.Now()
	sess, err := server.OpenSession(ls.dir, ls.cat, server.SessionRuntime{Fsync: ls.fsync})
	if err != nil {
		return fmt.Errorf("recovering the layer pass: %w", err)
	}
	ls.c.recoverMS = append(ls.c.recoverMS, float64(time.Since(start).Nanoseconds())/1e6)
	st := sess.Status()
	sess.Kill()
	if st.Statements != ls.statements || math.Float64bits(st.TotalWork) != math.Float64bits(ls.totalWork) {
		return fmt.Errorf("gate: recovered layer session %s has %d statements / total work %v, the pass ended on %d / %v",
			ls.name, st.Statements, st.TotalWork, ls.statements, ls.totalWork)
	}
	return nil
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

// readAllocs returns the process's cumulative heap allocation, in bytes
// and objects.
func readAllocs() (bytes, objects uint64) {
	s := append([]metrics.Sample(nil), allocSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapLiveBytes is the heap the last GC found live.
func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerResult is what the layer pass measured beyond its spans.
type layerResult struct {
	totalWork    float64
	counts       *layerCounts
	allocBytes   uint64
	allocObjects uint64
	gcPauseMS    float64
	heapLiveMB   float64
}

// runLayerPass replays every session of the inputs through the layers,
// one session after another (so allocation and self time attribute to one
// session's work), then recovers each from its files.
func runLayerPass(in *inputs, dir string, tr *tracer) (*layerResult, error) {
	w := in.W
	cat, _ := datagen.Build()
	sf, err := parseServeFlags(w.ServeFlags)
	if err != nil {
		return nil, err
	}
	followerURL := ""
	var follower *server.Server
	if w.replicated() {
		ff, err := parseServeFlags(w.FollowerFlags)
		if err != nil {
			return nil, err
		}
		follower, err = server.New(serverConfig(filepath.Join(dir, "follower"), ff))
		if err != nil {
			return nil, err
		}
		defer follower.Close()
		fts := httptest.NewServer(tr.middleware("standby", serviceMux(follower)))
		defer fts.Close()
		followerURL = fts.URL
	}

	c := &layerCounts{}
	res := &layerResult{counts: c}
	// The live heap is reported beyond what the process held before the
	// pass: the HTTP pass's spans and statuses, the standby's empty server.
	runtime.GC()
	heap0 := heapLiveBytes()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b0, o0 := readAllocs()
	var sessions []*layerSession
	for _, s := range in.Sessions {
		ls, err := newLayerSession(w, s.Name, filepath.Join(dir, "sessions", s.Name), cat, sf, followerURL, tr, c)
		if err != nil {
			return nil, err
		}
		if err := ls.replay(s); err != nil {
			return nil, err
		}
		res.totalWork += ls.totalWork
		if follower != nil {
			fs, ok := follower.Session(s.Name)
			if !ok {
				return nil, fmt.Errorf("gate: the standby never received session %s", s.Name)
			}
			st := fs.Status()
			if st.Statements != ls.statements || math.Float64bits(st.TotalWork) != math.Float64bits(ls.totalWork) || follower.MaxReplicationLag() != 0 {
				return nil, fmt.Errorf("gate: layer-pass standby %s has %d statements / total work %v (lag %d), the pass %d / %v",
					s.Name, st.Statements, st.TotalWork, follower.MaxReplicationLag(), ls.statements, ls.totalWork)
			}
		}
		sessions = append(sessions, ls)
	}
	b1, o1 := readAllocs()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.allocBytes = b1 - b0 - c.sideAllocBytes
	res.allocObjects = o1 - o0 - c.sideAllocObjs
	res.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	// What only the benchmark holds — the side copies and the pass's own
	// spans — is left out.
	for _, ls := range sessions {
		ls.sideOpt, ls.sideExt = nil, nil
	}
	runtime.GC()
	res.heapLiveMB = float64(int64(heapLiveBytes())-int64(heap0)-tr.bufferBytes()) / (1 << 20)
	for _, ls := range sessions {
		if err := ls.recover(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
