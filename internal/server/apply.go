package server

import (
	"time"

	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/stmt"
)

// applyChunk applies a chunk of WAL records to the tuner in log order. It
// is the one place a record takes effect, whether the chunk is a group
// commit of live ingest, the WAL tail recovery replays, or a batch the
// primary shipped. An event that completes a live job replies to it,
// except the chunk's last one when hold is set: a checkpoint is due
// after it, and its job reports that outcome. shares are a group
// commit's per-record shares, traced for its statements (nil: no live
// jobs). On error it returns the index of the failed event; every event
// before it has applied.
func (s *Session) applyChunk(chunk []event, shares *stageShares, hold bool) (int, error) {
	for k := range chunk {
		ev := &chunk[k]
		switch ev.rec.Type {
		case state.RecStatement:
			if ev.j == nil {
				s.applyStatement(ev.st, nil)
				break
			}
			sh := *shares
			sh.queueUS = ev.j.queueWait.Seconds() * 1e6
			ev.j.results = append(ev.j.results, s.applyStatement(ev.st, &sh))
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
				// Resolved now: a checkpoint due after this record may
				// compact before the job replies.
				ev.j.accept = accept
				ev.j.acceptDefs = acceptDefs{s.defsOf(accept.Materialized), s.defsOf(accept.Created), s.defsOf(accept.Dropped)}
			}
		case state.RecCompact:
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

// applyStatement analyzes one statement and charges the total-work
// account: the statement's cost under the currently materialized
// configuration, as the evaluation harness prices runs. It is the one
// place a statement counts toward the next checkpoint. shares carries the
// statement's queue wait and group-commit shares for the trace record;
// nil (a recovered or shipped record) — or instrumentation off — records
// nothing.
func (s *Session) applyStatement(st *stmt.Statement, shares *stageShares) StatementResult {
	var start time.Time
	traced := s.obsv != nil && shares != nil
	if traced {
		start = time.Now()
	}
	s.statements++
	s.tuner.AnalyzeQuery(st)
	c := s.opt.Cost(st, s.materialized)
	s.totalWork += c
	s.sinceCkpt++
	if traced {
		s.recordTrace(st, start, shares)
	}
	return StatementResult{ID: st.ID, Kind: st.Kind.String(), Cost: c}
}

// recordTrace builds the statement's trace record and feeds the
// analysis/apply stage histograms. The analysis stage is the engine's
// read-only run; apply is the rest of the statement's time on the apply
// path.
func (s *Session) recordTrace(st *stmt.Statement, start time.Time, shares *stageShares) {
	total := time.Since(start)
	runDur, _ := s.tuner.LastAnalysisDurations()
	apply := max(total-runDur, 0)
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
