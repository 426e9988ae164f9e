package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/state"
	"repro/internal/stmt"
)

// ParseError marks a client-side error in a statement or a vote (the
// request was rejected before anything was logged or applied), so the
// HTTP layer can distinguish 4xx from server-side apply failures.
type ParseError struct {
	Err error
}

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

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

// Vote casts explicit DBA feedback and returns the new recommendation. A
// spec the catalog rejects fails the vote with a ParseError before it is
// queued, so nothing of it is logged or applied.
func (s *Session) Vote(ctx context.Context, plus, minus []state.IndexSpec) (index.Set, error) {
	rec := state.Record{Type: state.RecVote, Plus: plus, Minus: minus}
	if err := s.validateVote(rec); err != nil {
		return index.EmptySet, &ParseError{Err: err}
	}
	rep, err := s.submit(ctx, &job{recs: []state.Record{rec}})
	return rep.rec, err
}

// Accept materializes the current recommendation.
func (s *Session) Accept(ctx context.Context) (AcceptResult, error) {
	rep, err := s.submit(ctx, &job{recs: []state.Record{{Type: state.RecAccept}}})
	return rep.accept, err
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

// ValidateSpec checks an index spec against the catalog without touching
// any registry: it must name a table, at least one of its columns, and no
// column twice. Session.Vote runs it on every spec before queueing a vote.
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
