package server

import (
	"fmt"
	"time"

	"repro/internal/state"
	"repro/internal/stmt"
)

// event is one WAL record on its way to the tuner: a record of a drained
// job, or (j nil) one of the WAL tail recovery replays or of a batch the
// primary shipped.
type event struct {
	j    *job
	st   *stmt.Statement // statement events: the parsed form
	rec  state.Record
	last bool // completes its job: reply once it (and any due checkpoint) lands
}

// appendEvents appends recs to events as apply events of job j and
// numbers their statements in log order after id, returning the extended
// events and the last number given. sts are recs' parsed statements (a
// live job's, parsed before it was queued), or nil for records read back
// from the WAL or shipped by the primary, which are parsed here and have
// no job to reply to (j nil). It is the one place statements are
// numbered, and it runs before any of them applies.
func (s *Session) appendEvents(events []event, j *job, recs []state.Record, sts []*stmt.Statement, id int) ([]event, int, error) {
	for k, rec := range recs {
		ev := event{j: j, rec: rec, last: k == len(recs)-1}
		if rec.Type == state.RecStatement {
			if sts != nil {
				ev.st = sts[k]
			} else {
				st, err := s.parser.Parse(rec.SQL)
				if err != nil {
					return nil, id, fmt.Errorf("statement (seq %d): %w", rec.Seq, err)
				}
				ev.st = st
			}
			id++
			ev.st.ID = id
		}
		events = append(events, ev)
	}
	return events, id, nil
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

	// Every job holds at least one record (Ingest drops empty batches),
	// its statements parsed and its votes checked before it was queued.
	events := make([]event, 0, len(jobs))
	id := s.statements
	for _, j := range jobs {
		if s.obsv != nil && !j.enq.IsZero() {
			j.queueWait = time.Since(j.enq)
			s.obsv.hQueue.Observe(j.queueWait.Seconds())
		}
		j.results = make([]StatementResult, 0, len(j.sts))
		events, id, _ = s.appendEvents(events, j, j.recs, j.sts, id) // parsed already: cannot fail
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
			// Votes were checked before they were queued, so this is
			// unreachable by construction; poison loudly rather than
			// diverge from the WAL silently.
			s.broken = fmt.Errorf("server: applying a logged record: %w", err)
			fail(i+k, s.broken)
			return
		}

		if due {
			if err := s.checkpointLocked(); err != nil {
				// The event that triggered the checkpoint reports its
				// outcome, like every job after it (its work has applied
				// either way; the error says the snapshot after it failed).
				s.broken = err
				fail(i+n-1, err)
				return
			}
			if last := &chunk[n-1]; last.last {
				s.replyDone(last.j)
			}
		}
		i += n
	}
}

// cutChunk returns how many of the pending events the next group commit
// may cover, and whether a checkpoint is due right after that chunk. It
// simulates exactly the per-record schedule: WAL growth record by record
// (FrameSize is exact) and the statement counter, cutting at the first
// event whose post-apply state makes checkpointDue true — so batching
// never moves a checkpoint (or the registry compaction it logs) relative
// to an unbatched session.
func (s *Session) cutChunk(pending []event) (n int, due bool) {
	since := s.sinceCkpt
	size := s.wal.Size()
	limit := min(s.rt.Batch, len(pending))
	for k := 0; k < limit; k++ {
		size += state.FrameSize(pending[k].rec)
		if pending[k].rec.Type == state.RecStatement {
			since++
		}
		if s.checkpointDue(since, size) {
			return k + 1, true
		}
	}
	return limit, false
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

// replyDone sends a job its success reply: the accept outcome for accept
// jobs, otherwise the accumulated statement results plus the
// recommendation as of the job's last applied event, each with its
// definitions.
func (s *Session) replyDone(j *job) {
	if j.recs[0].Type == state.RecAccept {
		s.reply(j, jobReply{accept: j.accept, acceptDefs: j.acceptDefs})
		return
	}
	rec := s.tuner.Recommend()
	s.reply(j, jobReply{results: j.results, rec: rec, recDefs: s.defsOf(rec)})
}
