package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/state"
)

// Shipper is the replication stream a primary session feeds. Commit is
// called after a group of records is durably in the local WAL, on a
// goroutine of its own while the apply loop applies the group; the loop
// joins it before any client is replied to, before the next Commit and
// before any Checkpointed, so calls never overlap. Commit returns nil
// only after the standby made the records durable: ship before ack. A
// Commit error never fails the local write: the write is acked from local
// durability, the shipper counts the failure in Stats and ships the
// records with a later Commit (semi-synchronous replication).
//
// Checkpointed(base) is called after a snapshot covering every record up
// to base has landed on disk: records ≤ base can be dropped, because a
// standby that still needs them can be bootstrapped from the snapshot
// instead. This bounds shipper memory by one checkpoint interval.
type Shipper interface {
	Commit(recs []state.Record) error
	Checkpointed(base uint64)
	Stats() ShipperStats
	Close() error
}

// ShipperStats is a point-in-time view of a replication stream.
type ShipperStats struct {
	// AckedSeq is the standby's cursor: every record up to it is durable
	// there. It moves back when a standby returns with less than it had
	// confirmed.
	AckedSeq uint64
	// Pending is the number of committed records not yet confirmed.
	Pending int
	// Errors counts failed ship attempts (the semi-sync degradation
	// gauge: nonzero means some acks were returned without standby
	// confirmation).
	Errors int64
	// SnapshotShips counts full-snapshot bootstraps of the standby.
	SnapshotShips int64
}

// GapError reports a shipped batch that does not continue the follower's
// log: the primary must rewind to Have+1 or bootstrap the follower from a
// snapshot.
type GapError struct {
	Have uint64 // the follower's last applied sequence number
	Want uint64 // the first shipped sequence number that does not continue it
}

func (e *GapError) Error() string {
	return fmt.Sprintf("server: replication gap (follower at seq %d, shipped batch breaks at seq %d)", e.Have, e.Want)
}

// LastSeq returns the sequence number of the session's most recent WAL
// record — the follower's replication cursor.
func (s *Session) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.LastSeq()
}

// ExportTunerState captures the session's full tuner state — the
// bit-identical comparison handle the replication and failover tests
// use to prove a follower IS the primary it mirrors.
func (s *Session) ExportTunerState() state.TunerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tuner.ExportState()
}

// ErrPromoted is returned by ApplyReplicated and InstallSnapshot once the
// server has been promoted: the node that shipped the records or the
// snapshot is a zombie primary, and nothing of it may reach the new
// timeline.
var ErrPromoted = errors.New("server: node is primary; replication stream rejected")

// ApplyReplicated applies a batch of shipped primary records on a
// follower: append them to the local WAL, then apply them through
// applyChunk, the path live ingest and recovery use. The follower's WAL
// is byte-identical to the stretch of the primary's it mirrors, and its
// tuner trajectory is the one replaying that WAL yields.
//
// durable, when set, is called once the batch is in the WAL (flushed, and
// synced under Fsync) and before any of it applies: the point at which the
// standby acks it. It runs under the session lock and must not call back
// into the session. The lock is held until the batch has applied and any
// due checkpoint is written, so every read of the session, a promoted
// node's first write and the next shipped batch see the batch applied.
// durable is not called for a batch that writes nothing.
//
// A session of a promoted server refuses every batch with ErrPromoted.
// The role is read under the session lock because a ship can pass the
// replication handler's fence just before Promote and reach the session
// after the promoted node's first write.
//
// Records the follower has already applied (seq ≤ local cursor) are
// dropped first: re-ships after a lost ack are idempotent, never
// double-applied. Every remaining record must then continue the log
// (cursor+1, cursor+2, …), so the sequence numbers AppendBatch assigns
// are the primary's; a batch with a gap anywhere is rejected whole with
// a GapError before anything is written, as is one whose statements do
// not parse. The call bypasses the job queue and serializes on the state
// mutex directly — followers have exactly one writer (the replication
// handler), and the queue's group-commit machinery would only re-batch
// what the primary already batched.
//
// Follower checkpoints ride here, once the applied statements make one
// due; a standby's checkpoint logs nothing (see checkpointLocked).
func (s *Session) ApplyReplicated(recs []state.Record, durable func(last uint64)) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rt.follower != nil && !s.rt.follower.Load() {
		return s.wal.LastSeq(), ErrPromoted
	}
	if s.broken != nil {
		return s.wal.LastSeq(), s.broken
	}
	// Track the highest sequence the primary has ever offered — even
	// when the batch is rejected for a gap — so ReplicationLag can
	// report how far behind the applied cursor is.
	if n := len(recs); n > 0 && recs[n-1].Seq > s.maxOffered {
		s.maxOffered = recs[n-1].Seq
	}
	last := s.wal.LastSeq()
	for len(recs) > 0 && recs[0].Seq <= last {
		recs = recs[1:] // already applied: a re-ship after a lost ack
	}
	if len(recs) == 0 {
		return last, nil
	}
	for k, rec := range recs {
		if rec.Seq != last+uint64(k)+1 {
			return last, &GapError{Have: last, Want: rec.Seq}
		}
	}
	events, _, err := s.appendEvents(nil, nil, recs, nil, s.statements)
	if err != nil {
		return last, fmt.Errorf("server: replicated %w", err)
	}
	if _, err := s.wal.AppendBatch(recs); err != nil {
		s.broken = fmt.Errorf("server: replica WAL append: %w", err)
		return last, s.broken
	}
	if durable != nil {
		durable(s.wal.LastSeq())
	}
	if k, err := s.applyChunk(events, nil, false); err != nil {
		s.broken = fmt.Errorf("server: applying replicated record (seq %d): %w", recs[k].Seq, err)
		return s.wal.LastSeq(), s.broken
	}
	if s.checkpointDue(s.sinceCkpt, s.wal.Size()) {
		if err := s.checkpointLocked(); err != nil {
			s.broken = err
			return s.wal.LastSeq(), err
		}
	}
	return s.wal.LastSeq(), nil
}

// ReplicationLag reports how many records the primary has offered this
// follower session beyond what it has applied (0 when caught up, and
// always 0 on a primary — nothing offers records to a primary). A gap
// rejection leaves the offered high-water mark in place, so a stale
// standby shows the true distance, not zero.
func (s *Session) ReplicationLag() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if applied := s.wal.LastSeq(); s.maxOffered > applied {
		return s.maxOffered - applied
	}
	return 0
}

// MaxReplicationLag returns the worst per-session replication lag in
// records across the server's sessions — the follower /healthz field the
// router shows in its own /healthz member view, so an operator can tell a
// caught-up standby from a stale one. Promotion does not read it.
func (sv *Server) MaxReplicationLag() uint64 {
	var worst uint64
	for _, s := range sv.Sessions() {
		if lag := s.ReplicationLag(); lag > worst {
			worst = lag
		}
	}
	return worst
}

// Follower reports whether the server is a warm standby (rejecting client
// writes, accepting the replication stream).
func (sv *Server) Follower() bool { return sv.follower.Load() }

// Role names the server's current role for health probes and status.
func (sv *Server) Role() string {
	if sv.Follower() {
		return "standby"
	}
	return "primary"
}

// Promote turns a standby into a primary: client writes are accepted from
// this call on, and the replication handler rejects further shipped
// records (fencing a zombie primary that comes back and keeps shipping).
// Sessions need no replay — a follower applies records as they arrive, so
// its state IS the acked-and-shipped prefix. Promotion on a server that
// is already primary is a no-op. The promoted server runs unreplicated
// until a standby is attached to it (restart with -standby).
func (sv *Server) Promote() {
	if sv.follower.CompareAndSwap(true, false) {
		obs.Event("server", "promotion", "role", "primary", "sessions", len(sv.Sessions()))
	}
}

// InstallSnapshot bootstraps (or re-bootstraps) a follower session from a
// primary snapshot: validate the bytes, lay them down as the session's
// snapshot file, and open the session over them — its WAL continues the
// primary's sequence numbering from the snapshot's LastSeq. An existing
// session of the same name is discarded first (the primary only ships a
// snapshot when the incremental stream cannot continue, so whatever the
// follower had is stale by construction). A promoted server refuses the
// snapshot with ErrPromoted. The role is read under the server lock,
// which every session lookup takes, so a snapshot that passed the
// handler's fence just before Promote never replaces a session the
// promoted node has written to.
func (sv *Server) InstallSnapshot(data []byte) (*Session, error) {
	snap, err := state.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("server: invalid shipped snapshot: %w", err)
	}
	name := snap.Session.Name
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("server: shipped snapshot has invalid session name %q", name)
	}

	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return nil, ErrSessionClosed
	}
	if !sv.Follower() {
		return nil, ErrPromoted
	}
	dir := filepath.Join(sv.sessionsRoot(), name)
	if old, ok := sv.sessions[name]; ok {
		delete(sv.sessions, name)
		old.Kill() // discard without checkpointing state we are replacing
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The shipped bytes land verbatim, through the same tmp + fsync +
	// rename as a checkpoint: re-encoding a parsed copy could only
	// introduce divergence from the primary's snapshot.
	err = state.WriteFileAtomic(filepath.Join(dir, SnapshotFile), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := state.SyncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	rt := sv.runtime(name, dir)
	rt.NewShipper = nil // a follower never ships: no chained replication
	sess, err := OpenSession(dir, sv.cat, rt)
	if err != nil {
		return nil, fmt.Errorf("server: opening installed snapshot: %w", err)
	}
	sv.sessions[name] = sess
	return sess, nil
}
