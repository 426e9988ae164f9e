package obs

import "sync"

// StatementTrace records where one ingested statement spent its time,
// split by ingest stage (all values in microseconds of wall time on
// the session's apply path). WAL and fsync are group-commit costs
// amortized over the records of the chunk the statement rode in.
type StatementTrace struct {
	// ID is the 1-based position of the statement in the session.
	ID int `json:"id"`
	// SQL is the statement text (as submitted).
	SQL string `json:"sql"`
	// TotalUS is the sum of the per-stage timings below.
	TotalUS float64 `json:"total_us"`
	// QueueUS is the time the statement's job waited in the ingest
	// queue before the apply loop picked it up.
	QueueUS float64 `json:"queue_us"`
	// WALUS is the statement's share of its chunk's WAL append+flush.
	WALUS float64 `json:"wal_append_us"`
	// FsyncUS is the statement's share of its chunk's fsync (0 when
	// fsync is disabled).
	FsyncUS float64 `json:"fsync_us"`
	// AnalysisUS is the what-if analysis (candidate mining, IBG build,
	// benefit/interaction extraction).
	AnalysisUS float64 `json:"analysis_us"`
	// ApplyUS is the apply-path remainder: WFA fold, recommendation
	// bookkeeping, and pricing the statement's total work.
	ApplyUS float64 `json:"apply_us"`
	// WhatIfCalls is the number of what-if optimizer probes the
	// statement's analysis issued (its IBG node count).
	WhatIfCalls int `json:"whatif_calls"`
}

// TraceRing retains the most recent N statement traces plus,
// separately, the slowest N by total time — so the tail stays
// inspectable even after it has scrolled out of the recent window.
type TraceRing struct {
	mu      sync.Mutex
	recent  []StatementTrace // ring buffer
	next    int
	full    bool
	slowest []StatementTrace // sorted descending by TotalUS
	slowCap int
}

// NewTraceRing sizes the two retention windows. Non-positive sizes get
// sensible defaults (128 recent, 32 slowest).
func NewTraceRing(recent, slowest int) *TraceRing {
	if recent <= 0 {
		recent = 128
	}
	if slowest <= 0 {
		slowest = 32
	}
	return &TraceRing{
		recent:  make([]StatementTrace, recent),
		slowest: make([]StatementTrace, 0, slowest),
		slowCap: slowest,
	}
}

// Add records one statement trace.
func (r *TraceRing) Add(t StatementTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recent[r.next] = t
	r.next++
	if r.next == len(r.recent) {
		r.next = 0
		r.full = true
	}
	// Insertion into the slowest-N list (kept sorted, descending).
	if len(r.slowest) == r.slowCap && t.TotalUS <= r.slowest[len(r.slowest)-1].TotalUS {
		return
	}
	i := 0
	for i < len(r.slowest) && r.slowest[i].TotalUS >= t.TotalUS {
		i++
	}
	if len(r.slowest) < r.slowCap {
		r.slowest = append(r.slowest, StatementTrace{})
	}
	copy(r.slowest[i+1:], r.slowest[i:])
	r.slowest[i] = t
}

// Snapshot returns up to n of the most recent traces (newest first) and
// up to n of the slowest (slowest first). n <= 0 means "all retained".
func (r *TraceRing) Snapshot(n int) (recent, slowest []StatementTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.recent)
	}
	nr := size
	if n > 0 && n < nr {
		nr = n
	}
	recent = make([]StatementTrace, 0, nr)
	for i := 0; i < nr; i++ {
		idx := (r.next - 1 - i + len(r.recent)) % len(r.recent)
		recent = append(recent, r.recent[idx])
	}
	ns := len(r.slowest)
	if n > 0 && n < ns {
		ns = n
	}
	slowest = append([]StatementTrace(nil), r.slowest[:ns]...)
	return recent, slowest
}
