package server

import (
	"time"

	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/stmt"
	"repro/internal/tuner"
)

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
// runs. It is the one place a statement counts toward the next
// checkpoint. shares carries the statement's queue wait and group-commit
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

// resolveVote turns a vote record's specs into interned index sets. A live
// vote was checked before it was queued; a vote read back from the WAL or
// shipped by the primary is checked here. Every spec is checked BEFORE
// any is interned: a vote that fails must leave the registry untouched,
// because its interning would make the ID assignment diverge from the
// log's. Interning happens here, inside the single-writer apply path, so
// registry ID assignment depends only on the event order the WAL records.
func (s *Session) resolveVote(rec state.Record) (index.Set, index.Set, error) {
	if err := s.validateVote(rec); err != nil {
		return index.EmptySet, index.EmptySet, err
	}
	resolve := func(specs []state.IndexSpec) index.Set {
		var ids []index.ID
		for _, spec := range specs { // Intern keeps an interned index's ID
			ids = append(ids, s.reg.Intern(cost.BuildIndexProto(s.cat, s.model.Params(), spec.Table, spec.Columns)))
		}
		return index.NewSet(ids...)
	}
	return resolve(rec.Plus), resolve(rec.Minus), nil
}
