package server

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/tuner"
)

// OpenSession recovers a session from dir: load the snapshot, restore the
// registry and tuner, then apply every WAL record the snapshot does not
// already cover, through the apply path live ingest uses. The recovered
// session is bit-identical to one that never stopped. rt selects the
// reopened session's runtime knobs. It logs one recovered event with the
// WAL records it replayed and how long the recovery took.
func OpenSession(dir string, cat *catalog.Catalog, rt SessionRuntime) (*Session, error) {
	start := time.Now()
	snap, err := state.ReadFile(filepath.Join(dir, SnapshotFile))
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
	reg, err := index.RestoreRegistry(snap.Defs)
	if err != nil {
		return nil, err
	}
	s := newSession(dir, cat, cfg, rt, reg)
	if s.tuner, err = tuner.Restore(s.opt, snap.Tuner); err != nil {
		return nil, err
	}
	s.statements = snap.Session.Statements
	s.totalWork = snap.Session.TotalWork
	s.transitionCost = snap.Session.TransitionCost
	s.changes = snap.Session.Changes
	s.materialized = s.tuner.Materialized()
	replayed, err := s.attach(snap.Session.LastSeq)
	if err != nil {
		return nil, err
	}
	s.start()
	obs.Event("server", "recovered",
		"session", s.cfg.Name, "wal_records", replayed, "statements", s.statements,
		"dur_ms", fmt.Sprintf("%.2f", time.Since(start).Seconds()*1e3))
	return s, nil
}

// attach opens the session's WAL and applies every record in it past
// covered, the last sequence number the session's snapshot holds (0 for
// a session being created), in one applyChunk call. It then hangs the
// commit observer and, when replication is configured, the shipper,
// which gets the replayed records as the backlog a recovered primary
// re-offers its standby without forcing a snapshot re-ship. It returns
// how many records it replayed.
func (s *Session) attach(covered uint64) (int, error) {
	var tail []state.Record
	wal, err := state.OpenWAL(filepath.Join(s.dir, walFile), func(rec state.Record) error {
		if rec.Seq > covered { // the snapshot already folded earlier records in
			tail = append(tail, rec)
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("server: opening WAL: %w", err)
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
			return 0, err
		}
	}
	wal.Fsync = s.rt.Fsync
	wal.SetHooks(s.rt.Hooks)
	s.wal = wal
	events, _, err := s.appendEvents(nil, nil, tail, nil, s.statements)
	if err == nil {
		if k, aerr := s.applyChunk(events, nil, false); aerr != nil {
			err = fmt.Errorf("seq %d: %w", events[k].rec.Seq, aerr)
		}
	}
	if err != nil {
		wal.Close()
		return 0, fmt.Errorf("server: replaying WAL: %w", err)
	}
	if s.obsv != nil {
		// Every commit's flush and fsync durations land in the stage
		// histograms and in the lastFlush/lastSync scratch the apply path
		// divides into per-statement trace shares. No registry, no hook:
		// the uninstrumented WAL path has zero added clocks.
		wal.OnCommit = func(flush, sync time.Duration, records int, bytes int64) {
			s.lastFlush, s.lastSync = flush, sync
			s.obsv.hWAL.Observe(flush.Seconds())
			if s.rt.Fsync {
				s.obsv.hFsync.Observe(sync.Seconds())
			}
		}
	}
	if s.rt.NewShipper != nil {
		s.shipper = s.rt.NewShipper(covered, tail)
	}
	return len(tail), nil
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

// checkpointDue reports whether a checkpoint is due once since statements
// have applied since the last one and the WAL holds walBytes: the one test
// of the CheckpointEvery and CheckpointBytes thresholds, for the live
// schedule (cutChunk) and the standby's (ApplyReplicated) alike.
func (s *Session) checkpointDue(since int, walBytes int64) bool {
	return (s.cfg.CheckpointEvery > 0 && since >= s.cfg.CheckpointEvery) ||
		(s.cfg.CheckpointBytes > 0 && walBytes >= s.cfg.CheckpointBytes)
}

// checkpointLocked snapshots the session and truncates the WAL: the one
// checkpoint of every path — creation, the live schedule, the standby's
// schedule, Checkpoint and Close. The snapshot lands via write-to-temp +
// rename, so a crash at any point leaves either the old snapshot + full
// WAL or the new snapshot (+ a WAL whose records the snapshot's LastSeq
// marks as covered).
//
// What it writes depends on the node's role. A retire-enabled primary
// garbage-collects first: a RecCompact record is logged and applied, so
// the snapshot about to be written is dense — snapshot size tracks live
// state, not workload history. Logging the compaction before performing
// it is what keeps a crash between the two recoverable bit-identically:
// replay reaches the record and compacts at the same stream position the
// live session did. A standby logs nothing: it must not inject records
// into the stream it mirrors, whose numbers are the primary's, and the
// primary's compaction records reach it in-stream, at their positions.
// Nor does a primary whose registry is empty, as at creation: there is
// nothing to compact, and the creation checkpoint would otherwise ship a
// record before the snapshot a standby bootstraps the session from.
func (s *Session) checkpointLocked() error {
	start := time.Now()
	standby := s.rt.follower != nil && s.rt.follower.Load()
	if s.cfg.Options.RetireAfter > 0 && !standby && s.reg.Len() > 0 {
		recs := []state.Record{{Type: state.RecCompact}}
		if err := s.logRecords(recs); err != nil {
			return fmt.Errorf("server: WAL append (compact): %w", err)
		}
		if _, err := s.applyChunk([]event{{rec: recs[0]}}, nil, false); err != nil {
			return err
		}
	}
	s.joinShip()
	walBytes := s.wal.Size()
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
	if err := state.WriteFile(filepath.Join(s.dir, SnapshotFile), snap); err != nil {
		return fmt.Errorf("server: writing snapshot: %w", err)
	}
	if err := s.wal.Reset(); err != nil {
		return fmt.Errorf("server: resetting WAL: %w", err)
	}
	s.sinceCkpt = 0
	if s.shipper != nil {
		// The snapshot on disk now covers everything ≤ LastSeq: the shipper
		// may drop those records (a standby behind it re-bootstraps from
		// the snapshot instead).
		s.shipper.Checkpointed(s.wal.LastSeq())
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
