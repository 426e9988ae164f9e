package server

import "repro/internal/index"

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
	// configured group-commit bound, and the number of WAL group commits
	// and the records they covered (records/commits = achieved batch
	// size).
	Batch              int   `json:"batch"`
	GroupCommits       int64 `json:"group_commits"`
	GroupCommitRecords int64 `json:"group_commit_records"`
	// SpecHits and SpecMisses are always 0, and neither /status nor
	// /metrics reports them.
	//
	// Deprecated: no session speculates. e2ebench's traced pass is the
	// last reader.
	SpecHits   int64 `json:"-"`
	SpecMisses int64 `json:"-"`
	// What-if optimizations the session has run, and how many
	// checkpoints it has taken (each one a snapshot + WAL truncation).
	WhatIfCalls int64 `json:"whatif_calls"`
	Checkpoints int64 `json:"checkpoints"`
	// Replication gauges (primaries with a shipper attached only; see
	// README "Replication & failover").
	Replication *ReplicationStatus `json:"replication,omitempty"`
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
		GroupCommits:       s.groupCommits,
		GroupCommitRecords: s.groupRecords,
		WhatIfCalls:        s.opt.Calls(),
		Checkpoints:        s.checkpoints,
	}
	if s.shipper != nil {
		st := s.shipper.Stats()
		r := &ReplicationStatus{Mode: "async", AckedSeq: st.AckedSeq, LocalSeq: s.wal.LastSeq(),
			Pending: st.Pending, ShipErrors: st.Errors, SnapshotShips: st.SnapshotShips}
		if st.Sync {
			r.Mode = "sync"
		}
		if r.LocalSeq > r.AckedSeq {
			r.Lag = r.LocalSeq - r.AckedSeq
		}
		status.Replication = r
	}
	return status
}

// Recommendation returns the current recommendation and its diff against
// the materialized configuration. Their IDs are valid until the next
// compaction renumbers them.
func (s *Session) Recommendation() (rec, create, drop index.Set) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recommendationLocked()
}

// recommendationDefs is Recommendation as definitions, resolved under the
// lock (see defsOf).
func (s *Session) recommendationDefs() (rec, create, drop []*index.Index) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, c, d := s.recommendationLocked()
	return s.defsOf(r), s.defsOf(c), s.defsOf(d)
}

func (s *Session) recommendationLocked() (rec, create, drop index.Set) {
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
