package bench

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/workload"
)

// PipelineOptions configures the ingest-throughput bench: one session per
// mode, each streaming the same workload slice over HTTP, comparing
// per-record commits against group commit, with and without fsync.
type PipelineOptions struct {
	// DataDir roots the per-mode server state (required).
	DataDir string
	// Statements per mode (default 480, measured after warmup).
	Statements int
	// Warmup statements stream through each session before measurement
	// starts (default 200 — one workload phase). The cold start mines a
	// template pool from scratch (large IBGs, early repartitions);
	// sustained ingest throughput is the serving property this section
	// reports, and the cold start is priced by the perf section's full
	// trajectories instead.
	Warmup int
	// ClientBatch is the statements per HTTP request in the batched
	// modes (default 32; the serial modes always send 1).
	ClientBatch int
	// Batch is the batched modes' group-commit record bound (default 32).
	Batch int
	// IdxCnt and StateCnt are the per-session tuner knobs (defaults 16
	// and 200).
	IdxCnt, StateCnt int
	// Seed drives workload generation.
	Seed int64
}

func (o *PipelineOptions) applyDefaults() {
	if o.Statements <= 0 {
		o.Statements = 480
	}
	if o.Warmup == 0 {
		o.Warmup = 200
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.ClientBatch <= 0 {
		o.ClientBatch = 32
	}
	if o.Batch <= 0 {
		o.Batch = 32
	}
	if o.IdxCnt <= 0 {
		o.IdxCnt = 16
	}
	if o.StateCnt <= 0 {
		o.StateCnt = 200
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// PipelineMode is one measured configuration of the ingest path.
type PipelineMode struct {
	// Name is serial, serial_fsync, batched, or batched_fsync.
	Name string `json:"name"`
	// Fsync, ClientBatch, and Batch echo the configuration.
	Fsync       bool `json:"fsync"`
	ClientBatch int  `json:"client_batch"`
	Batch       int  `json:"batch"`
	// WallMS is the wall time to stream the whole slice; StmtsPerSec the
	// resulting ingest throughput.
	WallMS      float64 `json:"wall_ms"`
	StmtsPerSec float64 `json:"stmts_per_sec"`
	// AckUS* summarize the per-REQUEST acknowledgement latency: the time
	// until the client knows its statements are durably logged and
	// applied. In the batched modes one ack covers ClientBatch
	// statements — that amortization is the point.
	AckUSMean float64 `json:"ack_us_mean"`
	AckUSP50  float64 `json:"ack_us_p50"`
	AckUSP90  float64 `json:"ack_us_p90"`
	AckUSP99  float64 `json:"ack_us_p99"`
	AckUSMax  float64 `json:"ack_us_max"`
	// Gauges from /status after the run.
	GroupCommits       int64 `json:"group_commits"`
	GroupCommitRecords int64 `json:"group_commit_records"`
	// TotalWork is the session's final total-work account — identical
	// across modes, the in-bench differential check that batching
	// changes throughput, never the tuning trajectory.
	TotalWork float64 `json:"total_work"`
}

// PipelinePerf is the "pipeline" section of BENCH_wfit.json.
type PipelinePerf struct {
	Statements int             `json:"statements"`
	Warmup     int             `json:"warmup_statements"`
	Modes      []*PipelineMode `json:"modes"`
	// SpeedupFsync is batched_fsync throughput over serial_fsync — the
	// group-commit payoff under the durable configuration (the CI
	// throughput-smoke job asserts it stays >= 2 on runner hardware).
	// The ratio is bounded by 1 + (fsync+HTTP)/analysis per statement,
	// so it is hardware-dependent: large where durable writes are slow
	// relative to the tuner (real disks), smaller on containers with
	// write-back fsync. SpeedupNoFsync is the same ratio for the
	// non-durable pair.
	SpeedupFsync   float64 `json:"speedup_fsync"`
	SpeedupNoFsync float64 `json:"speedup_no_fsync"`
	// TotalWorkIdentical records the differential check across all modes.
	TotalWorkIdentical bool `json:"total_work_identical"`
}

// RunPipeline measures the four ingest configurations back to back, each
// against its own in-process wfit-serve over a fresh data dir, driven by
// one HTTP client streaming the identical workload slice.
func RunPipeline(o PipelineOptions) (*PipelinePerf, error) {
	o.applyDefaults()
	if o.DataDir == "" {
		return nil, fmt.Errorf("bench: PipelineOptions.DataDir is required")
	}

	cat, joins := datagen.Build()
	wopts := workload.DefaultOptions()
	wopts.Seed = o.Seed
	need := o.Warmup + o.Statements
	wopts.Phases = (need+wopts.PerPhase-1)/wopts.PerPhase + 1
	wl := workload.Generate(cat, joins, wopts)
	if wl.Len() < need {
		return nil, fmt.Errorf("bench: workload too short (%d < %d)", wl.Len(), need)
	}
	warm := make([]string, o.Warmup)
	for i, s := range wl.Statements[:o.Warmup] {
		warm[i] = s.SQL
	}
	sqls := make([]string, o.Statements)
	for i, s := range wl.Statements[o.Warmup:need] {
		sqls[i] = s.SQL
	}

	perf := &PipelinePerf{Statements: o.Statements, Warmup: o.Warmup}
	modes := []*PipelineMode{
		{Name: "serial", ClientBatch: 1, Batch: 1},
		{Name: "serial_fsync", Fsync: true, ClientBatch: 1, Batch: 1},
		{Name: "batched", ClientBatch: o.ClientBatch, Batch: o.Batch},
		{Name: "batched_fsync", Fsync: true, ClientBatch: o.ClientBatch, Batch: o.Batch},
	}
	for _, m := range modes {
		if err := runPipelineMode(o, m, warm, sqls); err != nil {
			return nil, fmt.Errorf("bench: pipeline mode %s: %w", m.Name, err)
		}
		perf.Modes = append(perf.Modes, m)
	}

	byName := make(map[string]*PipelineMode, len(modes))
	for _, m := range perf.Modes {
		byName[m.Name] = m
	}
	if s := byName["serial_fsync"]; s.StmtsPerSec > 0 {
		perf.SpeedupFsync = byName["batched_fsync"].StmtsPerSec / s.StmtsPerSec
	}
	if s := byName["serial"]; s.StmtsPerSec > 0 {
		perf.SpeedupNoFsync = byName["batched"].StmtsPerSec / s.StmtsPerSec
	}
	perf.TotalWorkIdentical = true
	for _, m := range perf.Modes[1:] {
		if m.TotalWork != perf.Modes[0].TotalWork {
			perf.TotalWorkIdentical = false
		}
	}
	return perf, nil
}

// runPipelineMode boots a dedicated server for the mode, streams the
// warmup unmeasured, then streams and measures the workload slice.
func runPipelineMode(o PipelineOptions, m *PipelineMode, warm, sqls []string) error {
	sv, err := server.New(server.Config{
		DataDir: filepath.Join(o.DataDir, m.Name),
		Fsync:   m.Fsync,
		Batch:   m.Batch,
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(sv.Handler())
	defer func() {
		ts.Close()
		sv.Close()
	}()

	// Identical session (name + explicit seed + knobs) in every mode, so
	// the trajectories — and the final total work — must coincide.
	if err := postJSON(ts.URL+"/sessions", map[string]any{
		"name":      "pipe",
		"idx_cnt":   o.IdxCnt,
		"state_cnt": o.StateCnt,
		"seed":      7,
	}, nil); err != nil {
		return err
	}

	// Warmup streams through the same ingest path (batch shape included)
	// but outside the timed window.
	for at := 0; at < len(warm); at += m.ClientBatch {
		end := at + m.ClientBatch
		if end > len(warm) {
			end = len(warm)
		}
		if err := postJSON(ts.URL+"/sessions/pipe/sql", map[string]any{"sql": warm[at:end]}, nil); err != nil {
			return fmt.Errorf("warmup batch at %d: %w", at, err)
		}
	}

	acks := make([]float64, 0, (len(sqls)+m.ClientBatch-1)/m.ClientBatch)
	start := time.Now()
	for at := 0; at < len(sqls); at += m.ClientBatch {
		end := at + m.ClientBatch
		if end > len(sqls) {
			end = len(sqls)
		}
		t0 := time.Now()
		if err := postJSON(ts.URL+"/sessions/pipe/sql", map[string]any{"sql": sqls[at:end]}, nil); err != nil {
			return fmt.Errorf("batch at %d: %w", at, err)
		}
		acks = append(acks, float64(time.Since(t0).Microseconds()))
	}
	m.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	if m.WallMS > 0 {
		m.StmtsPerSec = float64(len(sqls)) / (m.WallMS / 1e3)
	}

	m.AckUSMean, m.AckUSP50, m.AckUSP90, m.AckUSP99, m.AckUSMax = latencySummary(acks)

	var status struct {
		Statements         int     `json:"statements"`
		TotalWork          float64 `json:"total_work"`
		GroupCommits       int64   `json:"group_commits"`
		GroupCommitRecords int64   `json:"group_commit_records"`
	}
	if err := getJSON(ts.URL+"/sessions/pipe/status", &status); err != nil {
		return err
	}
	if want := len(warm) + len(sqls); status.Statements != want {
		return fmt.Errorf("ingested %d statements, want %d", status.Statements, want)
	}
	m.TotalWork = status.TotalWork
	m.GroupCommits = status.GroupCommits
	m.GroupCommitRecords = status.GroupCommitRecords
	return nil
}
