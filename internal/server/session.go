// Package server turns the WFIT library into a deployable, multi-session
// tuning service: named sessions that each own a tuner behind a
// single-writer ingest loop, an HTTP/JSON API for statement ingestion and
// DBA feedback, and snapshot/WAL persistence so tuner state survives
// restarts (recovery = load snapshot + replay WAL, bit-identical to an
// uninterrupted run).
//
// Sessions are isolated tuning universes: each owns its index registry,
// cost model, and what-if optimizer, sharing only the immutable catalog.
// This is a deliberate deviation from a single shared optimizer — registry
// ID assignment must be deterministic per session for recovery to be
// bit-identical (IDs order work-function bits and break score ties). The
// optimizer is safe for concurrent use, so the analysis pipeline can run
// several of a session's statement analyses at once, each on one
// goroutine.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/sqlmini"
	"repro/internal/state"
	"repro/internal/stmt"
	"repro/internal/tuner"
	"repro/internal/whatif"

	// Every serving process links the full engine set, so any session —
	// created via flag, API field, or recovered from a kind-tagged
	// snapshot — can be driven regardless of which engine it runs.
	_ "repro/internal/tuner/bandit"
)

// snapshotFile and walFile are the two files of a session directory.
const (
	snapshotFile = "state.snap"
	walFile      = "wal.log"
)

// ErrSessionClosed is returned for operations on a closed session.
var ErrSessionClosed = errors.New("server: session closed")

// ParseError marks a client-side SQL error (the batch was rejected before
// anything was applied), so the HTTP layer can distinguish 4xx from
// server-side apply failures.
type ParseError struct {
	Err error
}

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// ConfigError marks an invalid session configuration (rejected before
// anything was created or started), so the HTTP layer can 4xx and the
// daemon can fail startup with a clear message.
type ConfigError struct {
	Err error
}

func (e *ConfigError) Error() string { return e.Err.Error() }
func (e *ConfigError) Unwrap() error { return e.Err }

// SessionConfig carries the per-session knobs. Zero values select the
// defaults noted on each field.
type SessionConfig struct {
	// Name identifies the session (and its directory under the data dir).
	Name string
	// Tuner selects the engine kind driving the session (default "wfit";
	// see tuner.Kinds for what this binary links). The kind persists in
	// the session's snapshots, so recovery resumes the same engine no
	// matter what later defaults say.
	Tuner string
	// Options are the tuner knobs (zero: core.DefaultOptions with Seed
	// derived from the name so distinct sessions explore independently).
	Options core.Options
	// QueueDepth bounds the ingest queue; enqueueing past it blocks the
	// client — the service's backpressure (default 256).
	QueueDepth int
	// CheckpointEvery snapshots automatically after this many statements
	// (default 500; negative disables automatic checkpoints).
	CheckpointEvery int
	// CheckpointBytes snapshots automatically whenever the WAL grows past
	// this many bytes, bounding recovery replay time even when statements
	// are huge or CheckpointEvery is disabled (0 disables).
	CheckpointBytes int64
}

// NameSeed derives a session's default partition-randomness seed from its
// name (FNV-1a), so distinct sessions explore the randomized-restart
// space independently while a recreated session of the same name explores
// identically. Never 0 — that is the "derive me" sentinel.
func NameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := int64(h.Sum64())
	if seed == 0 {
		seed = 1
	}
	return seed
}

// applyDefaults is the single source of truth for session-level option
// defaulting: every zero knob becomes its documented default here, and
// nowhere else (the server composes its own defaults in first — see
// Server.CreateSession — but never duplicates these rules).
func (c *SessionConfig) applyDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 500
	}
	if c.Tuner == "" {
		c.Tuner = tuner.KindWFIT
	}
	def := core.DefaultOptions()
	o := &c.Options
	if o.IdxCnt == 0 {
		o.IdxCnt = def.IdxCnt
	}
	if o.StateCnt == 0 {
		o.StateCnt = def.StateCnt
	}
	if o.HistSize == 0 {
		o.HistSize = def.HistSize
	}
	if o.RandCnt == 0 {
		o.RandCnt = def.RandCnt
	}
	if o.MaxPartSize == 0 {
		o.MaxPartSize = def.MaxPartSize
	}
	if o.DoiThreshold == 0 {
		o.DoiThreshold = def.DoiThreshold
	}
	if o.Seed == 0 {
		// Derived from the name, NOT the shared core default: a single
		// fleet-wide seed would make every session explore the randomized
		// partition restarts identically, defeating the documented
		// independent exploration.
		o.Seed = NameSeed(c.Name)
	}
}

// Check applies defaults and validates the configuration without
// creating anything — the daemon uses it to fail startup fast on flag
// values that every session would inherit and reject.
func (c SessionConfig) Check() error {
	c.applyDefaults()
	return c.validate()
}

// validate rejects knob values that would silently create unbounded
// tuner state — a non-positive IdxCnt/StateCnt/HistSize flows into
// NewWindow(cap <= 0), an infinite history, turning the durable service
// into a memory leak — or that are nonsensical for the service. A
// MaxPartSize above core.MaxPartBits is refused too, as RestoreWFIT
// refuses it, so no session is created that its own recovery rejects.
// It runs after applyDefaults, so zeros have already become defaults and
// anything non-positive here was an explicit request.
func (c *SessionConfig) validate() error {
	bad := func(format string, args ...any) error {
		return &ConfigError{Err: fmt.Errorf(format, args...)}
	}
	o := &c.Options
	switch {
	case o.IdxCnt <= 0:
		return bad("idx_cnt must be positive, got %d", o.IdxCnt)
	case o.StateCnt <= 0:
		return bad("state_cnt must be positive, got %d", o.StateCnt)
	case o.HistSize <= 0:
		return bad("hist_size must be positive, got %d (unbounded histories are not allowed in the service)", o.HistSize)
	case o.RetireAfter < 0:
		return bad("retire_after must be non-negative, got %d", o.RetireAfter)
	case o.MaxPartSize > core.MaxPartBits:
		return bad("max_part_size must be at most %d, the widest part a work function holds, got %d", core.MaxPartBits, o.MaxPartSize)
	case c.CheckpointBytes < 0:
		return bad("checkpoint_bytes must be non-negative, got %d", c.CheckpointBytes)
	}
	if _, ok := tuner.Lookup(c.Tuner); !ok {
		return bad("unknown tuner %q (available: %s)", c.Tuner, strings.Join(tuner.Kinds(), ", "))
	}
	return nil
}

// StatementResult reports one ingested statement.
type StatementResult struct {
	ID   int     `json:"id"`
	Kind string  `json:"kind"`
	Cost float64 `json:"cost"`
}

// AcceptResult reports a materialization.
type AcceptResult struct {
	Materialized   index.Set
	Created        index.Set
	Dropped        index.Set
	TransitionCost float64
}

// SessionStatus is a point-in-time summary of a session.
type SessionStatus struct {
	Name string `json:"name"`
	// Tuner is the engine kind driving the session; in the metrics
	// exposition it becomes the engine label on every session gauge.
	Tuner          string  `json:"tuner"`
	Statements     int     `json:"statements"`
	UniverseSize   int     `json:"universe_size"`
	Repartitions   int     `json:"repartitions"`
	Parts          int     `json:"parts"`
	States         int     `json:"states"`
	TotalWork      float64 `json:"total_work"`
	TransitionCost float64 `json:"transition_cost"`
	Changes        int     `json:"changes"`
	Materialized   int     `json:"materialized"`
	WALSeq         uint64  `json:"wal_seq"`
	WALBytes       int64   `json:"wal_bytes"`
	QueueLen       int     `json:"queue_len"`
	QueueDepth     int     `json:"queue_depth"`
	// Memory-model gauges (see README "Memory model"): live registry
	// definitions, retained statistics histories, and the lifetime count
	// of retired candidates. With retire_after set, all of the first
	// three plateau at O(monitored state).
	RegistrySize   int `json:"registry_size"`
	BenefitWindows int `json:"benefit_windows"`
	PairWindows    int `json:"pair_windows"`
	Retired        int `json:"retired"`
	// Throughput gauges (see README "Throughput & batching"): the
	// configured knobs, the number of WAL group commits and the records
	// they covered (records/commits = achieved batch size), and how often
	// the speculative analysis pipeline's work was consumed at apply time
	// versus recomputed.
	Batch              int   `json:"batch"`
	Pipeline           int   `json:"pipeline"`
	GroupCommits       int64 `json:"group_commits"`
	GroupCommitRecords int64 `json:"group_commit_records"`
	SpecHits           int64 `json:"spec_hits"`
	SpecMisses         int64 `json:"spec_misses"`
	// What-if optimizations the session has run, and how many
	// checkpoints it has taken (each one a snapshot + WAL truncation).
	WhatIfCalls int64 `json:"whatif_calls"`
	Checkpoints int64 `json:"checkpoints"`
	// Replication gauges (primaries with a shipper attached only; see
	// README "Replication & failover").
	Replication *ReplicationStatus `json:"replication,omitempty"`
}

// Session is one independent tuning loop with durable state. All
// mutations (statements, votes, accepts) flow through a bounded queue
// into a single-writer loop that appends each event to the WAL before
// applying it to the tuner; reads synchronize on the state mutex and see
// the latest applied event.
type Session struct {
	cfg SessionConfig
	rt  SessionRuntime // defaults applied
	dir string

	cat    *catalog.Catalog
	reg    *index.Registry
	model  *cost.Model
	opt    *whatif.Optimizer
	parser *sqlmini.Parser

	jobs chan *job
	wg   sync.WaitGroup

	// encMu guards the closed flag; submitters hold it shared for the
	// duration of their enqueue so Close cannot close the queue under a
	// blocked sender.
	encMu  sync.RWMutex
	closed bool

	// mu guards the tuner and every counter below. The ingest loop holds
	// it per drained batch; read endpoints hold it briefly. Speculative
	// analysis goroutines run WITHOUT it — they touch only state captured
	// at launch plus the concurrency-safe registry and what-if optimizer.
	mu             sync.Mutex
	tuner          tuner.Engine
	wal            *state.WAL
	shipper        Shipper
	shipping       chan struct{} // closed when the in-flight Commit returns; nil when none is
	statements     int
	totalWork      float64
	transitionCost float64
	changes        int
	materialized   index.Set
	sinceCkpt      int
	broken         error // a failed WAL write or checkpoint poisons the session

	// Throughput gauges (guarded by mu).
	groupCommits int64
	groupRecords int64
	specHits     int64
	specMisses   int64
	checkpoints  int64

	// maxOffered (followers only, guarded by mu) is the highest primary
	// sequence number ever offered to this session — including batches
	// rejected for a gap — so maxOffered − wal.LastSeq() is the
	// follower's replication lag in records.
	maxOffered uint64

	// obsv holds the session's resolved metric instruments and trace
	// ring; nil (no registry wired) disables instrumentation entirely.
	// lastFlush/lastSync are scratch written by the WAL commit observer
	// (synchronously, under the same serialization as the append) and
	// read right after each AppendBatch returns.
	obsv      *sessionObs
	lastFlush time.Duration
	lastSync  time.Duration
}

type job struct {
	// recs are the WAL records the job logs: one vote or accept, or a
	// whole ingest batch — one queued job per client request, so the
	// single-writer loop sees batches it can group commit instead of a
	// lock-step stream of single statements.
	recs []state.Record
	// sts are an ingest job's parsed statements, index-aligned with recs.
	sts   []*stmt.Statement
	reply chan jobReply

	// enq is the enqueue timestamp (set only when the session is
	// instrumented); queueWait is the measured queue delay, recorded by
	// the apply loop when it first touches the job.
	enq       time.Time
	queueWait time.Duration

	// results and accept accumulate outcomes as the apply loop works
	// through the job's events (only the apply loop touches them).
	results []StatementResult
	accept  AcceptResult
}

type jobReply struct {
	err     error
	results []StatementResult
	rec     index.Set
	accept  AcceptResult
}

// newSessionBase builds the per-session world (registry, model, optimizer,
// parser, instruments) without a tuner.
func newSessionBase(dir string, cat *catalog.Catalog, cfg SessionConfig, rt SessionRuntime) *Session {
	reg := index.NewRegistry()
	model := cost.NewModel(cat, reg, cost.DefaultParams())
	return &Session{
		cfg:          cfg,
		rt:           rt,
		obsv:         newSessionObs(rt.Metrics, cfg.Name),
		dir:          dir,
		cat:          cat,
		reg:          reg,
		model:        model,
		opt:          whatif.New(model),
		parser:       sqlmini.NewParser(cat),
		materialized: index.EmptySet,
		jobs:         make(chan *job, cfg.QueueDepth),
	}
}

// CreateSession initializes a fresh session in dir. The directory gains an
// initial snapshot immediately, so a restart can always recover the
// session (including its configuration) even if it never checkpointed.
func CreateSession(dir string, cat *catalog.Catalog, cfg SessionConfig) (*Session, error) {
	return CreateSessionWith(dir, cat, cfg, SessionRuntime{})
}

// CreateSessionWith is CreateSession with the serving process's runtime
// knobs and wiring (see SessionRuntime).
func CreateSessionWith(dir string, cat *catalog.Catalog, cfg SessionConfig, rt SessionRuntime) (*Session, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := rt.applyDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
		return nil, fmt.Errorf("server: session directory %s already initialized", dir)
	}
	s := newSessionBase(dir, cat, cfg, rt)
	eng, err := tuner.New(cfg.Tuner, s.opt, cfg.Options)
	if err != nil {
		return nil, &ConfigError{Err: err}
	}
	s.tuner = eng
	wal, err := state.OpenWAL(filepath.Join(dir, walFile), nil)
	if err != nil {
		return nil, err
	}
	wal.Fsync = rt.Fsync
	wal.SetHooks(rt.Hooks)
	s.wal = wal
	s.installCommitObserver()
	if rt.NewShipper != nil {
		s.shipper = rt.NewShipper(0, nil)
	}
	if err := s.writeSnapshot(); err != nil {
		wal.Close()
		return nil, err
	}
	// Make the session directory itself durable: a crash right after the
	// 201 response must not lose the directory entry (recovery skips
	// directories without a snapshot).
	if err := state.SyncDir(filepath.Dir(dir)); err != nil {
		wal.Close()
		return nil, err
	}
	s.start()
	return s, nil
}

// SessionRuntime carries the knobs and wiring a session takes from the
// serving process — the daemon's flags, or server.Config — and never from
// its creation request or its snapshot: durability (fsync) and throughput
// (batch, pipeline) are operational choices of the process, not persisted
// tuner state, and none of them changes the tuner trajectory. Created and
// recovered sessions read them alike.
type SessionRuntime struct {
	// Fsync syncs the WAL to stable storage on every commit. Off by
	// default: acknowledged records already survive kill -9 (they are
	// flushed to the OS), fsync additionally covers power loss.
	Fsync bool
	// Batch caps how many WAL records one group commit covers. The ingest
	// loop drains queued work up to this bound and appends the whole
	// group with a single flush (and, with Fsync, a single fsync) before
	// applying it in order — amortizing the per-record persistence cost
	// without changing the event stream: group boundaries are cut exactly
	// where a checkpoint would fall, so the WAL byte stream and the tuner
	// trajectory are identical to per-record commits. Recovery applies
	// the WAL tail in chunks of the same bound (default 1, a commit per
	// record).
	Batch int
	// Pipeline is the number of worker goroutines that speculatively run
	// the read-only analysis phase (candidate peek, IBG construction,
	// what-if probing) for statements behind the apply cursor within a
	// chunk — of live ingest, of recovery, or of a standby's shipped
	// batch. Each speculation is validated against the tuner's change
	// epoch at apply time and recomputed serially on a miss, so any
	// setting produces bit-identical trajectories. 0 disables
	// speculation; negative means one worker per CPU.
	Pipeline int
	// NewShipper, when set, attaches a replication stream to the session.
	// The factory receives the sequence number the session's snapshot
	// already covers and the WAL tail replayed past it — the backlog a
	// recovered primary must re-offer its standby without forcing a
	// snapshot re-ship. Every subsequent group commit is offered to the
	// returned Shipper, and its ship returns before the client is replied
	// to.
	NewShipper func(base uint64, tail []state.Record) Shipper
	// Hooks threads fault-injection hooks under the session's WAL writer
	// (see state.WALHooks); nil is the production path.
	Hooks *state.WALHooks
	// Metrics, when set, turns on the session's instrumentation: stage
	// latency histograms registered here, plus the per-statement trace
	// ring behind GET /sessions/{id}/trace. Nil keeps every clock and
	// ring off the ingest path.
	Metrics *obs.Registry

	// follower is the serving Server's role, which ApplyReplicated reads
	// under the session lock; nil outside a Server.
	follower *atomic.Bool
}

// Check resolves and validates the runtime knobs without creating
// anything — the daemon fails startup fast on a -batch every session
// would reject.
func (rt SessionRuntime) Check() error { return rt.applyDefaults() }

// applyDefaults resolves the throughput knobs (Batch 0 becomes 1, a
// negative Pipeline one worker per CPU) and rejects a negative Batch.
func (rt *SessionRuntime) applyDefaults() error {
	if rt.Batch == 0 {
		rt.Batch = 1
	}
	if rt.Pipeline < 0 {
		rt.Pipeline = runtime.NumCPU()
	}
	if rt.Batch < 1 {
		return &ConfigError{Err: fmt.Errorf("batch must be positive, got %d", rt.Batch)}
	}
	return nil
}

// Shipper is the replication stream a primary session feeds. Commit is
// called after a group of records is durably in the local WAL, on a
// goroutine of its own while the apply loop applies the group; the loop
// joins it before any client is replied to, before the next Commit and
// before any Checkpointed, so calls never overlap. A synchronous shipper
// that returns nil only after the standby made the records durable gives
// ship-before-ack semantics, an asynchronous one buffers and returns
// immediately. A Commit error never fails the local write — the session
// degrades to asynchronous semantics and the shipper reports the
// condition through Stats (semi-synchronous replication).
//
// Checkpointed(base) is called after a snapshot covering every record up
// to base has landed on disk: records ≤ base can be dropped from any
// retry buffer, because a standby that still needs them can be
// bootstrapped from the snapshot instead. This bounds shipper memory by
// one checkpoint interval.
type Shipper interface {
	Commit(recs []state.Record) error
	Checkpointed(base uint64)
	Stats() ShipperStats
	Close() error
}

// ShipperStats is a point-in-time view of a replication stream.
type ShipperStats struct {
	// Sync reports ship-before-ack mode.
	Sync bool
	// AckedSeq is the highest sequence number the standby has confirmed.
	AckedSeq uint64
	// Pending is the number of committed records not yet confirmed.
	Pending int
	// Errors counts failed ship attempts (the semi-sync degradation
	// gauge: nonzero with Sync set means some acks were returned without
	// standby confirmation).
	Errors int64
	// SnapshotShips counts full-snapshot bootstraps of the standby.
	SnapshotShips int64
}

// ReplicationStatus is the replication section of SessionStatus.
type ReplicationStatus struct {
	Mode          string `json:"mode"` // "sync" or "async"
	AckedSeq      uint64 `json:"acked_seq"`
	LocalSeq      uint64 `json:"local_seq"`
	Lag           uint64 `json:"lag"` // LocalSeq - AckedSeq
	Pending       int    `json:"pending"`
	ShipErrors    int64  `json:"ship_errors"`
	SnapshotShips int64  `json:"snapshot_ships"`
}

// OpenSession recovers a session from dir: load the snapshot, restore the
// registry and tuner, then apply every WAL record the snapshot does not
// already cover, through the apply path live ingest uses. The recovered
// session is bit-identical to one that never stopped. rt selects the
// reopened session's runtime knobs.
func OpenSession(dir string, cat *catalog.Catalog, rt SessionRuntime) (*Session, error) {
	snap, err := state.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, fmt.Errorf("server: reading session snapshot: %w", err)
	}
	if err := rt.applyDefaults(); err != nil {
		return nil, err
	}
	cfg := SessionConfig{
		Name:            snap.Session.Name,
		Tuner:           snap.Tuner.TunerKind(),
		Options:         snap.Tuner.TunerOptions(),
		QueueDepth:      snap.Session.QueueDepth,
		CheckpointEvery: snap.Session.CheckpointEvery,
		CheckpointBytes: snap.Session.CheckpointBytes,
	}
	// applyDefaults only; deliberately no validate(): a pre-validation
	// session may have persisted knobs the rules now reject (e.g. a
	// negative HistSize meaning unbounded windows), and refusing to open
	// it would brick every session in the data dir at daemon startup.
	// The session recovers with the exact semantics it ran with;
	// validation guards the creation path only.
	cfg.applyDefaults()
	s := newSessionBase(dir, cat, cfg, rt)
	reg, err := index.RestoreRegistry(snap.Defs)
	if err != nil {
		return nil, err
	}
	s.reg = reg
	s.model = cost.NewModel(cat, reg, cost.DefaultParams())
	s.opt = whatif.New(s.model)
	s.tuner, err = tuner.Restore(s.opt, snap.Tuner)
	if err != nil {
		return nil, err
	}
	s.statements = snap.Session.Statements
	s.totalWork = snap.Session.TotalWork
	s.transitionCost = snap.Session.TransitionCost
	s.changes = snap.Session.Changes
	s.materialized = s.tuner.Materialized()

	covered := snap.Session.LastSeq
	var tail []state.Record // the records past the snapshot: replayed, and a shipper's backlog
	wal, err := state.OpenWAL(filepath.Join(dir, walFile), func(rec state.Record) error {
		if rec.Seq > covered { // the snapshot already folded earlier records in
			tail = append(tail, rec)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("server: opening WAL: %w", err)
	}
	// Restore the sequence counter from the snapshot when the on-disk log
	// holds nothing past it (the normal state after a clean checkpoint:
	// Reset truncates the log, the counter lives only in memory). Without
	// this, a restarted session would reissue sequence numbers the
	// snapshot already covers, and the NEXT recovery would skip those
	// acknowledged records as old — silent loss.
	if wal.LastSeq() < covered {
		if err := wal.SetSeq(covered); err != nil {
			wal.Close()
			return nil, err
		}
	}
	wal.Fsync = rt.Fsync
	wal.SetHooks(rt.Hooks)
	s.wal = wal
	events, err := s.recordEvents(tail)
	for i := 0; err == nil && i < len(events); i += rt.Batch {
		chunk := events[i:min(i+rt.Batch, len(events))]
		if k, aerr := s.applyChunk(chunk, nil, false); aerr != nil {
			err = fmt.Errorf("seq %d: %w", chunk[k].rec.Seq, aerr)
		}
	}
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("server: replaying WAL: %w", err)
	}
	s.installCommitObserver()
	s.sinceCkpt = len(tail)
	if rt.NewShipper != nil {
		s.shipper = rt.NewShipper(covered, tail)
	}
	s.start()
	return s, nil
}

// recordEvents parses a stretch of the log — the WAL tail recovery
// replays, or a batch the primary shipped — into events with no job to
// reply to, assigning statement IDs in log order.
func (s *Session) recordEvents(recs []state.Record) ([]event, error) {
	events := make([]event, len(recs))
	id := s.statements
	for k, rec := range recs {
		events[k].rec = rec
		if rec.Type != state.RecStatement {
			continue
		}
		st, err := s.parser.Parse(rec.SQL)
		if err != nil {
			return nil, fmt.Errorf("statement (seq %d): %w", rec.Seq, err)
		}
		id++
		st.ID = id
		events[k].st = st
	}
	return events, nil
}

// installCommitObserver hangs the WAL-layer timing hook: every commit's
// flush and fsync durations land in the stage histograms and in the
// lastFlush/lastSync scratch the apply path divides into per-statement
// trace shares. No registry, no hook — the uninstrumented WAL path has
// zero added clocks.
func (s *Session) installCommitObserver() {
	if s.obsv == nil {
		return
	}
	s.wal.OnCommit = func(flush, sync time.Duration, records int, bytes int64) {
		s.lastFlush, s.lastSync = flush, sync
		s.obsv.hWAL.Observe(flush.Seconds())
		if s.rt.Fsync {
			s.obsv.hFsync.Observe(sync.Seconds())
		}
	}
}

func (s *Session) start() {
	s.wg.Add(1)
	go s.loop()
}

// loop is the single-writer ingest loop: it drains queued jobs into a
// batch and hands each batch to the group-commit apply path.
func (s *Session) loop() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.applyBatch(s.drainBatch(j))
	}
}

// drainBatch collects jobs that are already queued behind first, without
// blocking, up to the Batch record bound — the natural group size: under
// light load every batch is the one job that woke the loop (identical to
// per-record commits), under pressure the group grows toward the bound.
func (s *Session) drainBatch(first *job) []*job {
	batch := []*job{first}
	records := len(first.recs)
	for records < s.rt.Batch {
		select {
		case j, ok := <-s.jobs:
			if !ok {
				return batch
			}
			batch = append(batch, j)
			records += len(j.recs)
		default:
			return batch
		}
	}
	return batch
}

// event is one WAL record on its way to the tuner: a record of a drained
// job, or (j nil) one of the WAL tail recovery replays or of a batch the
// primary shipped.
type event struct {
	j    *job
	st   *stmt.Statement // statement events: the parsed form
	rec  state.Record
	last bool // completes its job: reply once it (and any due checkpoint) lands
}

// applyBatch is the batched single-writer ingest path. It flattens the
// drained jobs into an event stream, then repeatedly: cuts the longest
// prefix that ends no later than the next checkpoint boundary (and within
// the Batch bound), group-commits those WAL records with one
// flush(+fsync), applies them through applyChunk, and checkpoints if the
// cut ended at a boundary. Cutting at checkpoint boundaries is what keeps
// the WAL byte stream identical to per-record commits: a
// registry-compaction record still lands exactly where an unbatched
// session would have logged it, so recovery replays both streams to the
// same state.
func (s *Session) applyBatch(jobs []*job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// No ship outlives the batch: Close and Kill close the shipper
	// without joining.
	defer s.joinShip()
	if s.broken != nil {
		for _, j := range jobs {
			s.reply(j, jobReply{err: s.broken})
		}
		return
	}

	// Flatten to events. Votes are validated against the catalog up
	// front — without interning — so a malformed vote is rejected before
	// anything of it is logged or applied, exactly as the per-record path
	// rejected it before its append. Statement IDs are pre-assigned here,
	// while nothing else can touch the statements: the apply path must
	// not write st.ID later, when a speculative Run may be reading it.
	events := make([]event, 0, len(jobs))
	nextID := s.statements
	for _, j := range jobs {
		if s.obsv != nil && !j.enq.IsZero() {
			j.queueWait = time.Since(j.enq)
			s.obsv.hQueue.Observe(j.queueWait.Seconds())
		}
		if len(j.recs) == 0 {
			// Defense in depth (Ingest filters these): a job with no
			// events would otherwise never be replied to.
			s.reply(j, jobReply{rec: s.tuner.Recommend()})
			continue
		}
		if err := s.validateVote(j.recs[0]); err != nil {
			s.reply(j, jobReply{err: err})
			continue
		}
		j.results = make([]StatementResult, 0, len(j.sts))
		for i, rec := range j.recs {
			ev := event{rec: rec, j: j, last: i == len(j.recs)-1}
			if rec.Type == state.RecStatement {
				nextID++
				ev.st = j.sts[i]
				ev.st.ID = nextID
			}
			events = append(events, ev)
		}
	}

	// fail replies err to every job that still has events at or after
	// index from (partial statement results included), once each.
	fail := func(from int, err error) {
		var prev *job
		for k := from; k < len(events); k++ {
			if j := events[k].j; j != prev {
				s.reply(j, jobReply{err: err, results: j.results})
				prev = j
			}
		}
	}

	i := 0
	for i < len(events) {
		n, due := s.cutChunk(events[i:])
		chunk := events[i : i+n]
		recs := make([]state.Record, n)
		for k := range chunk {
			recs[k] = chunk[k].rec
		}
		if err := s.logRecords(recs); err != nil {
			s.broken = fmt.Errorf("server: WAL append: %w", err)
			fail(i, s.broken)
			return
		}
		// Per-statement shares of the group commit, for the traces: the
		// flush and fsync the chunk just paid, amortized over its records
		// (exactly how the cost amortizes for the clients waiting on it).
		var shares stageShares
		if s.obsv != nil {
			shares.walUS = s.lastFlush.Seconds() * 1e6 / float64(n)
			shares.fsyncUS = s.lastSync.Seconds() * 1e6 / float64(n)
		}
		s.groupCommits++
		s.groupRecords += int64(n)
		if k, err := s.applyChunk(chunk, &shares, due); err != nil {
			// Votes were validated above, so this is unreachable by
			// construction; poison loudly rather than diverge from the WAL
			// silently.
			s.broken = fmt.Errorf("server: applying a logged record: %w", err)
			fail(i+k, s.broken)
			return
		}

		if due {
			var err error
			if err = s.checkpointLocked(); err != nil {
				s.broken = err
			}
			// The event that triggered the checkpoint reports its outcome,
			// like the per-record path did (its work has applied either
			// way; the error says the snapshot after it failed).
			if last := &chunk[n-1]; last.last {
				if err != nil {
					s.reply(last.j, jobReply{err: err, results: last.j.results})
				} else {
					s.replyDone(last.j)
				}
			}
			if err != nil {
				fail(i+n, s.broken)
				return
			}
		}
		i += n
	}
}

// logRecords group-commits recs to the WAL — one flush, plus one fsync
// under Fsync — assigning their sequence numbers, then offers them to the
// standby on a goroutine of their own, so the chunk applies while its
// ship is in flight. A synchronous shipper returns only after the standby
// made the records durable. Every reply, the next logRecords and every
// snapshot join the ship first (joinShip): no client hears an ack the
// standby has not made durable, and no two shipper calls overlap. A ship
// failure never fails the local write — the shipper records it and the
// session degrades to async semantics until the stream recovers
// (semi-sync).
func (s *Session) logRecords(recs []state.Record) error {
	s.joinShip()
	if _, err := s.wal.AppendBatch(recs); err != nil {
		return err
	}
	if sh := s.shipper; sh != nil {
		done := make(chan struct{})
		s.shipping = done
		go func() {
			defer close(done)
			sh.Commit(recs) //nolint:errcheck // counted in ShipperStats.Errors
		}()
	}
	return nil
}

// joinShip waits for the ship logRecords started, if one is in flight.
func (s *Session) joinShip() {
	if s.shipping != nil {
		<-s.shipping
		s.shipping = nil
	}
}

// reply sends a job its reply once the last group commit's ship has
// returned.
func (s *Session) reply(j *job, rep jobReply) {
	s.joinShip()
	j.reply <- rep
}

// applyChunk applies a chunk of WAL records to the tuner in log order. It
// is the one place a record takes effect, whether the chunk is a group
// commit of live ingest, a stretch of the WAL tail recovery replays, or a
// batch the primary shipped. With Pipeline > 0 the chunk's statements are
// analyzed speculatively ahead of the apply cursor. An event that
// completes a live job replies to it, except the chunk's last one when
// hold is set: a checkpoint is due after it, and its job reports that
// outcome. shares are a group commit's per-record shares, traced for its
// statements (nil: no live jobs). On error it returns the index of the
// failed event; every event before it has applied.
func (s *Session) applyChunk(chunk []event, shares *stageShares, hold bool) (int, error) {
	cp := s.newChunkPipeline(chunk)
	defer cp.finish()
	for k := range chunk {
		cp.advance(s, chunk, k)
		ev := &chunk[k]
		switch ev.rec.Type {
		case state.RecStatement:
			if ev.j == nil {
				s.applyStatement(ev.st, cp.task(k), nil)
				break
			}
			sh := *shares
			sh.queueUS = ev.j.queueWait.Seconds() * 1e6
			ev.j.results = append(ev.j.results, s.applyStatement(ev.st, cp.task(k), &sh))
		case state.RecVote:
			// Interning happens here, at the vote's position in the log, so
			// registry ID assignment depends only on the record order.
			plus, minus, err := s.resolveVote(ev.rec)
			if err != nil {
				return k, err
			}
			s.tuner.Feedback(plus, minus)
		case state.RecAccept:
			accept := s.applyAccept()
			if ev.j != nil {
				ev.j.accept = accept
			}
		case state.RecCompact:
			// Compaction renumbers the index IDs a speculative Run reads.
			// The capture window stops at this record, so every Run in
			// flight belongs to an applied statement: reap them first.
			cp.reap()
			dropped := s.tuner.CompactRegistry()
			// The session's copy of the materialized set holds
			// pre-compaction IDs; re-read the remapped form from the tuner.
			s.materialized = s.tuner.Materialized()
			obs.Event("server", "compaction",
				"session", s.cfg.Name, "wal_seq", ev.rec.Seq,
				"dropped", dropped, "registry", s.reg.Len())
		}
		if ev.j != nil && ev.last && !(hold && k == len(chunk)-1) {
			s.replyDone(ev.j)
		}
	}
	return len(chunk), nil
}

// replyDone sends a job its success reply: the accept outcome for accept
// jobs, otherwise the accumulated statement results plus the
// recommendation as of the job's last applied event.
func (s *Session) replyDone(j *job) {
	if j.recs[0].Type == state.RecAccept {
		s.reply(j, jobReply{accept: j.accept})
		return
	}
	s.reply(j, jobReply{results: j.results, rec: s.tuner.Recommend()})
}

// cutChunk returns how many of the pending events the next group commit
// may cover, and whether a checkpoint is due right after that chunk. It
// simulates exactly the per-record schedule: WAL growth record by record
// (FrameSize is exact) and the statement counter, cutting at the first
// event whose post-apply state satisfies the checkpoint condition — so
// batching never moves a checkpoint (or the registry compaction it logs)
// relative to an unbatched session.
func (s *Session) cutChunk(pending []event) (n int, due bool) {
	simSince := s.sinceCkpt
	simSize := s.wal.Size()
	max := s.rt.Batch
	if max > len(pending) {
		max = len(pending)
	}
	for k := 0; k < max; k++ {
		simSize += state.FrameSize(pending[k].rec)
		if pending[k].rec.Type == state.RecStatement {
			simSince++
		}
		if (s.cfg.CheckpointEvery > 0 && simSince >= s.cfg.CheckpointEvery) ||
			(s.cfg.CheckpointBytes > 0 && simSize >= s.cfg.CheckpointBytes) {
			return k + 1, true
		}
	}
	return max, false
}

// validateVote checks every spec of a record (only votes carry any)
// against the catalog without touching the registry.
func (s *Session) validateVote(rec state.Record) error {
	for _, specs := range [][]state.IndexSpec{rec.Plus, rec.Minus} {
		for _, spec := range specs {
			if err := ValidateSpec(s.cat, spec); err != nil {
				return err
			}
		}
	}
	return nil
}

// specTask is one in-flight speculative analysis. consumed is touched
// only by the apply loop (under mu), never by the worker.
type specTask struct {
	a        tuner.Analysis
	done     chan struct{}
	consumed bool
}

// chunkPipeline runs the speculative analyses of one chunk: a worker pool
// fed by a sliding capture window that stays at most Pipeline statements
// ahead of the apply cursor. Keeping the window narrow is what keeps the
// hit rate high — a capture is never more than Pipeline-1 applies old, so
// an invalidating apply (new interned candidate, repartition, accept)
// dooms at most the in-flight window, and every statement behind it is
// re-captured against the post-change state instead of being written off
// with the rest of the chunk.
type chunkPipeline struct {
	tasks []*specTask // index-aligned with the chunk's events (nil for non-stmt)
	feed  chan *specTask
	width int
	next  int // next chunk index the window may capture
}

// newChunkPipeline starts the worker pool for a chunk, or returns nil
// when speculation is disabled.
func (s *Session) newChunkPipeline(chunk []event) *chunkPipeline {
	n, width := len(chunk), s.rt.Pipeline
	if width <= 0 || n < 2 {
		return nil
	}
	cp := &chunkPipeline{
		tasks: make([]*specTask, n),
		feed:  make(chan *specTask, n),
		width: width,
	}
	workers := width
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range cp.feed {
				t.a.Run()
				close(t.done)
			}
		}()
	}
	return cp
}

// advance tops the capture window up to cursor+width, stopping short of
// a compaction record not yet applied: compaction renumbers the index IDs
// a capture holds. Must run under mu: BeginAnalysis snapshots the tuner's
// current epoch and context. The feed channel is buffered to the chunk
// length, so the send never blocks.
func (cp *chunkPipeline) advance(s *Session, chunk []event, cursor int) {
	if cp == nil {
		return
	}
	for cp.next < len(chunk) && cp.next < cursor+cp.width {
		ev := &chunk[cp.next]
		if ev.rec.Type == state.RecCompact && cp.next >= cursor {
			return
		}
		if ev.rec.Type == state.RecStatement {
			t := &specTask{a: s.tuner.BeginAnalysis(ev.st, 1), done: make(chan struct{})}
			cp.tasks[cp.next] = t
			cp.feed <- t
		}
		cp.next++
	}
}

// task returns the speculative task for chunk index k, if any.
func (cp *chunkPipeline) task(k int) *specTask {
	if cp == nil {
		return nil
	}
	return cp.tasks[k]
}

// reap waits for every launched-but-unconsumed task and discards it.
// Callers must invoke it before any registry compaction: Analysis.Run
// must never overlap an ID renumbering.
func (cp *chunkPipeline) reap() {
	if cp == nil {
		return
	}
	for _, t := range cp.tasks[:cp.next] {
		if t != nil && !t.consumed {
			<-t.done
			t.a.Discard()
			t.consumed = true
		}
	}
}

// finish stops the pool and reaps what is left; applyChunk defers it, so
// it runs on every exit path and before a due checkpoint compacts.
func (cp *chunkPipeline) finish() {
	if cp == nil {
		return
	}
	close(cp.feed)
	cp.reap()
}

// applyStatement analyzes one statement — consuming a valid speculative
// analysis when one is offered, recomputing serially otherwise — and
// charges the total-work account: the statement's cost under the
// currently materialized configuration, as the evaluation harness prices
// runs. shares carries the statement's queue wait and group-commit
// shares for the trace record; nil (a recovered or shipped record) — or
// instrumentation off — records nothing.
func (s *Session) applyStatement(st *stmt.Statement, spec *specTask, shares *stageShares) StatementResult {
	// st.ID was assigned when the chunk's events were built — never here:
	// writing it now would race with an in-flight speculative Run reading
	// the statement.
	var start time.Time
	traced := s.obsv != nil && shares != nil
	if traced {
		start = time.Now()
	}
	s.statements++
	specHit := false
	switch {
	case spec == nil:
		s.tuner.AnalyzeQuery(st)
	case s.tuner.AnalysisValid(spec.a):
		// Worth waiting for: the capture is still current, so the Run's
		// result will be consumed (nothing can invalidate it while we
		// hold mu).
		<-spec.done
		if s.tuner.ApplyAnalysis(spec.a) {
			s.specHits++
			specHit = true
		} else {
			s.specMisses++
		}
		spec.consumed = true
	default:
		// Already stale — recompute immediately instead of waiting for a
		// doomed Run; the join at the end of the chunk reaps it.
		s.specMisses++
		s.tuner.AnalyzeQuery(st)
	}
	c := s.opt.Cost(st, s.materialized)
	s.totalWork += c
	s.sinceCkpt++
	if traced {
		s.recordTrace(st, start, specHit, shares)
	}
	return StatementResult{ID: st.ID, Kind: st.Kind.String(), Cost: c}
}

// recordTrace builds the statement's trace record and feeds the
// analysis/apply stage histograms. The analysis stage is the heavy
// read-only Run wherever it executed (inline or on the speculative
// pipeline); apply is the rest of the statement's time on the
// serialized path — for speculative hits that includes any wait for
// the concurrent Run, which is genuine apply-path stall.
func (s *Session) recordTrace(st *stmt.Statement, start time.Time, specHit bool, shares *stageShares) {
	total := time.Since(start)
	runDur, _ := s.tuner.LastAnalysisDurations()
	apply := total
	if !specHit {
		// The run happened inline, inside total; subtract it out so the
		// two stages partition the measured time.
		apply -= runDur
		if apply < 0 {
			apply = 0
		}
	}
	analysisUS := runDur.Seconds() * 1e6
	applyUS := apply.Seconds() * 1e6
	s.obsv.hAnalysis.Observe(runDur.Seconds())
	s.obsv.hApply.Observe(apply.Seconds())
	s.obsv.trace.Add(obs.StatementTrace{
		ID:          st.ID,
		SQL:         st.SQL,
		TotalUS:     shares.queueUS + shares.walUS + shares.fsyncUS + analysisUS + applyUS,
		QueueUS:     shares.queueUS,
		WALUS:       shares.walUS,
		FsyncUS:     shares.fsyncUS,
		AnalysisUS:  analysisUS,
		ApplyUS:     applyUS,
		WhatIfCalls: s.tuner.LastIBGNodes(),
		SpecHit:     specHit,
	})
}

// applyAccept materializes the current recommendation with implicit
// feedback (creations are positive votes, drops negative — §3.1).
func (s *Session) applyAccept() AcceptResult {
	rec := s.tuner.Recommend()
	created := rec.Minus(s.materialized)
	dropped := s.materialized.Minus(rec)
	var delta float64
	if !rec.Equal(s.materialized) {
		delta = s.reg.Delta(s.materialized, rec)
		s.totalWork += delta
		s.transitionCost += delta
		s.changes++
	}
	s.materialized = rec
	s.tuner.SetMaterialized(rec)
	s.tuner.Feedback(created, dropped)
	return AcceptResult{Materialized: rec, Created: created, Dropped: dropped, TransitionCost: delta}
}

// resolveVote turns a vote record's specs into interned index sets. Every
// spec is validated BEFORE any is interned: a vote that fails validation
// must leave the registry untouched, because failed votes are never
// WAL-logged and any interning they did would make the live ID assignment
// diverge from what recovery replays. Interning happens here, inside the
// single-writer apply path, so registry ID assignment depends only on the
// event order the WAL records.
func (s *Session) resolveVote(rec state.Record) (index.Set, index.Set, error) {
	if err := s.validateVote(rec); err != nil {
		return index.EmptySet, index.EmptySet, err
	}
	resolve := func(specs []state.IndexSpec) index.Set {
		var ids []index.ID
		for _, spec := range specs {
			ids = append(ids, s.resolveSpec(spec))
		}
		return index.NewSet(ids...)
	}
	return resolve(rec.Plus), resolve(rec.Minus), nil
}

// resolveSpec interns one already-validated spec.
func (s *Session) resolveSpec(spec state.IndexSpec) index.ID {
	if id, ok := s.reg.Lookup(spec.Table, spec.Columns); ok {
		return id
	}
	return s.reg.Intern(cost.BuildIndexProto(s.cat, s.model.Params(), spec.Table, spec.Columns))
}

// ValidateSpec checks an index spec against the catalog without touching
// any registry — the read-only validation HTTP handlers run before
// enqueueing a vote.
func ValidateSpec(cat *catalog.Catalog, spec state.IndexSpec) error {
	if len(spec.Columns) == 0 {
		return fmt.Errorf("index spec %s has no columns", spec.Table)
	}
	t, ok := cat.Table(spec.Table)
	if !ok {
		return fmt.Errorf("unknown table %q", spec.Table)
	}
	seen := make(map[string]bool, len(spec.Columns))
	for _, c := range spec.Columns {
		if !t.HasColumn(c) {
			return fmt.Errorf("table %s has no column %q", spec.Table, c)
		}
		if seen[c] {
			return fmt.Errorf("index spec %s repeats column %q", spec.Table, c)
		}
		seen[c] = true
	}
	return nil
}

// submit enqueues a job (blocking on a full queue — the backpressure the
// bounded channel provides) and waits for the apply loop's reply.
func (s *Session) submit(ctx context.Context, j *job) (jobReply, error) {
	j.reply = make(chan jobReply, 1)
	if s.obsv != nil {
		j.enq = time.Now()
	}
	s.encMu.RLock()
	if s.closed {
		s.encMu.RUnlock()
		return jobReply{}, ErrSessionClosed
	}
	select {
	case s.jobs <- j:
		s.encMu.RUnlock()
	case <-ctx.Done():
		s.encMu.RUnlock()
		return jobReply{}, ctx.Err()
	}
	rep := <-j.reply
	return rep, rep.err
}

// Ingest parses and analyzes a batch of SQL statements in order. Parse
// errors fail the whole batch up front — nothing is applied or WAL-logged
// (the documented ParseError contract); the parsed batch then travels as
// ONE queued job, so the apply loop can group-commit its records and
// pipeline its analysis instead of lock-stepping statement by statement.
// An apply error reports the statements that did land before it.
func (s *Session) Ingest(ctx context.Context, sqls []string) ([]StatementResult, index.Set, error) {
	if len(sqls) == 0 {
		// An empty batch logs and applies nothing; submitting it would
		// produce a job with no events — and therefore no reply.
		return nil, index.EmptySet, nil
	}
	j := &job{recs: make([]state.Record, len(sqls)), sts: make([]*stmt.Statement, len(sqls))}
	for i, sql := range sqls {
		st, err := s.parser.Parse(sql)
		if err != nil {
			return nil, index.EmptySet, &ParseError{Err: fmt.Errorf("statement %d: %w", i+1, err)}
		}
		j.recs[i] = state.Record{Type: state.RecStatement, SQL: sql}
		j.sts[i] = st
	}
	rep, err := s.submit(ctx, j)
	return rep.results, rep.rec, err
}

// Vote casts explicit DBA feedback and returns the new recommendation.
func (s *Session) Vote(ctx context.Context, plus, minus []state.IndexSpec) (index.Set, error) {
	rep, err := s.submit(ctx, &job{recs: []state.Record{{Type: state.RecVote, Plus: plus, Minus: minus}}})
	return rep.rec, err
}

// Accept materializes the current recommendation.
func (s *Session) Accept(ctx context.Context) (AcceptResult, error) {
	rep, err := s.submit(ctx, &job{recs: []state.Record{{Type: state.RecAccept}}})
	return rep.accept, err
}

// Recommendation returns the current recommendation and its diff against
// the materialized configuration.
func (s *Session) Recommendation() (rec, create, drop index.Set) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec = s.tuner.Recommend()
	return rec, rec.Minus(s.materialized), s.materialized.Minus(rec)
}

// Materialized returns the session's current physical configuration.
func (s *Session) Materialized() index.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.materialized
}

// TotalWork returns the cumulative total work (statement costs under the
// adopted configurations plus transition costs).
func (s *Session) TotalWork() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalWork
}

// Registry exposes the session's index registry (for formatting sets).
func (s *Session) Registry() *index.Registry { return s.reg }

// Name returns the session name.
func (s *Session) Name() string { return s.cfg.Name }

// Status summarizes the session.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	es := s.tuner.Status()
	status := SessionStatus{
		Name:               s.cfg.Name,
		Tuner:              s.cfg.Tuner,
		Statements:         s.statements,
		UniverseSize:       es.UniverseSize,
		Repartitions:       es.Repartitions,
		Parts:              es.Parts,
		States:             es.States,
		TotalWork:          s.totalWork,
		TransitionCost:     s.transitionCost,
		Changes:            s.changes,
		Materialized:       s.materialized.Len(),
		WALSeq:             s.wal.LastSeq(),
		WALBytes:           s.wal.Size(),
		QueueLen:           len(s.jobs),
		QueueDepth:         s.cfg.QueueDepth,
		RegistrySize:       s.reg.Len(),
		BenefitWindows:     es.BenefitWindows,
		PairWindows:        es.PairWindows,
		Retired:            es.Retired,
		Batch:              s.rt.Batch,
		Pipeline:           s.rt.Pipeline,
		GroupCommits:       s.groupCommits,
		GroupCommitRecords: s.groupRecords,
		SpecHits:           s.specHits,
		SpecMisses:         s.specMisses,
		WhatIfCalls:        s.opt.Calls(),
		Checkpoints:        s.checkpoints,
	}
	if s.shipper != nil {
		st := s.shipper.Stats()
		local := s.wal.LastSeq()
		mode := "async"
		if st.Sync {
			mode = "sync"
		}
		var lag uint64
		if local > st.AckedSeq {
			lag = local - st.AckedSeq
		}
		status.Replication = &ReplicationStatus{
			Mode:          mode,
			AckedSeq:      st.AckedSeq,
			LocalSeq:      local,
			Lag:           lag,
			Pending:       st.Pending,
			ShipErrors:    st.Errors,
			SnapshotShips: st.SnapshotShips,
		}
	}
	return status
}

// Checkpoint forces a snapshot now. It synchronizes with the apply loop,
// so it captures a consistent state between events.
func (s *Session) Checkpoint() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return 0, s.broken
	}
	if err := s.checkpointLocked(); err != nil {
		s.broken = err
		return 0, err
	}
	return s.wal.LastSeq(), nil
}

// checkpointLocked snapshots the session and truncates the WAL. The
// snapshot lands via write-to-temp + rename, so a crash at any point
// leaves either the old snapshot + full WAL or the new snapshot (+ a WAL
// whose records the snapshot's LastSeq marks as covered).
//
// Retire-enabled sessions garbage-collect here first: a RecCompact
// record is logged and applied, so the snapshot about to be written is
// dense — snapshot size tracks live state, not workload history. Logging
// the compaction before performing it is what keeps a crash between the
// two recoverable bit-identically: replay reaches the record and compacts
// at the same stream position the live session did.
func (s *Session) checkpointLocked() error {
	start := time.Now()
	if s.cfg.Options.RetireAfter > 0 {
		// The compaction record reaches the standby in-stream, at the same
		// position, so the follower compacts where the primary did —
		// follower checkpoints are snapshot-only for this reason.
		recs := []state.Record{{Type: state.RecCompact}}
		if err := s.logRecords(recs); err != nil {
			return fmt.Errorf("server: WAL append (compact): %w", err)
		}
		if _, err := s.applyChunk([]event{{rec: recs[0]}}, nil, false); err != nil {
			return err
		}
	}
	walBytes := s.wal.Size()
	if err := s.snapshotLocked(); err != nil {
		return err
	}
	s.checkpoints++
	dur := time.Since(start)
	if s.obsv != nil {
		s.obsv.hCkpt.Observe(dur.Seconds())
	}
	obs.Event("server", "checkpoint",
		"session", s.cfg.Name, "wal_seq", s.wal.LastSeq(),
		"wal_bytes_covered", walBytes, "statements", s.statements,
		"dur_ms", fmt.Sprintf("%.2f", dur.Seconds()*1e3))
	return nil
}

// snapshotLocked writes the snapshot and truncates the WAL, with no
// compaction prelude — the whole follower checkpoint (a follower must
// not inject records into a stream it mirrors; compactions arrive
// shipped), and the tail half of the primary's checkpointLocked.
func (s *Session) snapshotLocked() error {
	s.joinShip()
	snap := &state.Snapshot{
		Defs:  state.CaptureRegistry(s.reg),
		Tuner: s.tuner.ExportState(),
		Session: state.SessionState{
			Name:            s.cfg.Name,
			Statements:      s.statements,
			TotalWork:       s.totalWork,
			TransitionCost:  s.transitionCost,
			Changes:         s.changes,
			LastSeq:         s.wal.LastSeq(),
			QueueDepth:      s.cfg.QueueDepth,
			CheckpointEvery: s.cfg.CheckpointEvery,
			CheckpointBytes: s.cfg.CheckpointBytes,
		},
	}
	if err := state.WriteFile(filepath.Join(s.dir, snapshotFile), snap); err != nil {
		return fmt.Errorf("server: writing snapshot: %w", err)
	}
	if err := s.wal.Reset(); err != nil {
		return fmt.Errorf("server: resetting WAL: %w", err)
	}
	s.sinceCkpt = 0
	if s.shipper != nil {
		// The snapshot on disk now covers everything ≤ LastSeq: the shipper
		// may drop those records from its retry buffer (a lagging standby
		// re-bootstraps from the snapshot instead).
		s.shipper.Checkpointed(s.wal.LastSeq())
	}
	return nil
}

// writeSnapshot writes the initial (empty-history) snapshot at creation.
func (s *Session) writeSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// Close drains the queue, checkpoints, and releases the WAL. Safe to call
// twice.
func (s *Session) Close() error {
	if !s.seal() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.broken == nil {
		err = s.checkpointLocked()
	}
	if s.shipper != nil {
		if serr := s.shipper.Close(); err == nil {
			err = serr
		}
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Kill terminates the session without checkpointing or flushing —
// modeling a crashed process for recovery tests. Acknowledged WAL records
// are already on disk (AppendBatch flushes), so recovery sees exactly the
// state a kill -9 would leave behind.
func (s *Session) Kill() {
	if !s.seal() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shipper != nil {
		// Stop the stream's goroutines; a real crash would not flush, and
		// Close is documented not to (pending unshipped records are the
		// async mode's loss window — the differential tests measure it).
		s.shipper.Close() //nolint:errcheck
	}
	s.wal.Abort()
}

// seal marks the session closed and stops the apply loop after the queue
// drains. It reports whether this call performed the transition.
func (s *Session) seal() bool {
	s.encMu.Lock()
	if s.closed {
		s.encMu.Unlock()
		return false
	}
	s.closed = true
	s.encMu.Unlock()
	close(s.jobs)
	s.wg.Wait()
	return true
}
