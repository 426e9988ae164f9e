package server

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/tuner"
)

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

// SessionRuntime carries the knobs and wiring a session takes from the
// serving process — the daemon's flags, or server.Config — and never from
// its creation request or its snapshot: durability (fsync) and throughput
// (batch) are operational choices of the process, not persisted tuner
// state, and none of them changes the tuner trajectory. Created and
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

	// follower is the serving Server's role, which ApplyReplicated and
	// every checkpoint read under the session lock; nil outside a Server,
	// where a session counts as a primary.
	follower *atomic.Bool
}

// Check resolves and validates the runtime knobs without creating
// anything — the daemon fails startup fast on a -batch every session
// would reject.
func (rt SessionRuntime) Check() error { return rt.applyDefaults() }

// applyDefaults resolves the throughput knob (Batch 0 becomes 1) and
// rejects a negative Batch.
func (rt *SessionRuntime) applyDefaults() error {
	if rt.Batch == 0 {
		rt.Batch = 1
	}
	if rt.Batch < 1 {
		return &ConfigError{Err: fmt.Errorf("batch must be positive, got %d", rt.Batch)}
	}
	return nil
}
