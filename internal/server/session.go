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
// bit-identical (IDs order work-function bits and break score ties). A
// session analyzes its statements one at a time, in log order, on its
// single-writer loop.
package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/sqlmini"
	"repro/internal/state"
	"repro/internal/tuner"
	"repro/internal/whatif"

	// Every serving process links the full engine set, so any session —
	// created via flag, API field, or recovered from a kind-tagged
	// snapshot — can be driven regardless of which engine it runs.
	_ "repro/internal/tuner/bandit"
)

// SnapshotFile and walFile are the two files of a session directory.
// The replication shipper reads the snapshot by SnapshotFile.
const (
	SnapshotFile = "state.snap"
	walFile      = "wal.log"
)

// ErrSessionClosed is returned for operations on a closed session.
var ErrSessionClosed = errors.New("server: session closed")

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
	// it per drained batch; read endpoints hold it briefly.
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
	sinceCkpt      int   // statements applied since the last checkpoint
	broken         error // a failed WAL write or checkpoint poisons the session

	// Throughput gauges (guarded by mu).
	groupCommits int64
	groupRecords int64
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

// newSession builds a session's world over reg, the registry it was
// created with or restored from: cost model, what-if optimizer, parser
// and instruments. The caller adds the tuner and attaches the WAL.
func newSession(dir string, cat *catalog.Catalog, cfg SessionConfig, rt SessionRuntime, reg *index.Registry) *Session {
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
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); err == nil {
		return nil, fmt.Errorf("server: session directory %s already initialized", dir)
	}
	s := newSession(dir, cat, cfg, rt, index.NewRegistry())
	eng, err := tuner.New(cfg.Tuner, s.opt, cfg.Options)
	if err != nil {
		return nil, &ConfigError{Err: err}
	}
	s.tuner = eng
	if _, err := s.attach(0); err != nil {
		return nil, err
	}
	s.mu.Lock()
	err = s.checkpointLocked()
	s.mu.Unlock()
	if err == nil {
		// Make the session directory itself durable: a crash right after
		// the 201 response must not lose the directory entry (recovery
		// skips directories without a snapshot).
		err = state.SyncDir(filepath.Dir(dir))
	}
	if err != nil {
		s.wal.Close()
		return nil, err
	}
	s.start()
	return s, nil
}

// Registry exposes the session's index registry, for formatting the sets
// the session returns before the next compaction renumbers their IDs.
func (s *Session) Registry() *index.Registry { return s.reg }

// Name returns the session name.
func (s *Session) Name() string { return s.cfg.Name }

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
