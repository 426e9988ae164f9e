package bench

import (
	"runtime"
	"sort"

	"repro/internal/core"
)

// PerfSide measures the per-statement analysis loop: the full WFIT in
// deployment configuration (online candidate maintenance, private what-if
// optimizer), driven over the environment's workload.
type PerfSide struct {
	// WallMSTotal is the total wall time spent inside the tuner.
	WallMSTotal float64 `json:"analysis_wall_ms_total"`
	// USPerStmtMean is the mean per-statement analysis wall time (µs).
	USPerStmtMean float64 `json:"us_per_stmt_mean"`
	// USPerStmtP50/P90/P99/Max summarize the per-statement distribution.
	USPerStmtP50 float64 `json:"us_per_stmt_p50"`
	USPerStmtP90 float64 `json:"us_per_stmt_p90"`
	USPerStmtP99 float64 `json:"us_per_stmt_p99"`
	USPerStmtMax float64 `json:"us_per_stmt_max"`
	// PerStmtWallUS is the full per-statement wall-time trajectory (µs).
	PerStmtWallUS []float64 `json:"per_stmt_wall_us"`
	// AllocsPerStmt*/BytesPerStmt* summarize the per-statement heap
	// allocation distribution (allocation count and allocated bytes
	// attributable to the tuner, measured as runtime MemStats deltas
	// around the analysis of each statement).
	AllocsPerStmtMean float64 `json:"allocs_per_stmt_mean"`
	AllocsPerStmtP50  float64 `json:"allocs_per_stmt_p50"`
	AllocsPerStmtMax  float64 `json:"allocs_per_stmt_max"`
	BytesPerStmtMean  float64 `json:"bytes_per_stmt_mean"`
	BytesPerStmtP50   float64 `json:"bytes_per_stmt_p50"`
	BytesPerStmtP90   float64 `json:"bytes_per_stmt_p90"`
	BytesPerStmtMax   float64 `json:"bytes_per_stmt_max"`
	// WhatIfCalls counts what-if optimizations.
	WhatIfCalls int64 `json:"whatif_calls"`
	// WhatIfPerStmt summarizes IBG sizes (= what-if calls per statement).
	WhatIfPerStmt Overhead `json:"whatif_per_stmt"`
	// FinalRatio is totWork(OPT)/totWork after the whole workload — the
	// paper's OPT-normalized quality metric. TotalWork is the raw total,
	// and OptNormalizedRatio the full per-statement ratio trajectory.
	FinalRatio         float64   `json:"opt_normalized_final_ratio"`
	TotalWork          float64   `json:"total_work"`
	OptNormalizedRatio []float64 `json:"opt_normalized_ratio"`
}

// PerfReport measures the per-statement analysis loop; it is the payload
// of cmd/wfitbench's BENCH_wfit.json. Schema
// wfit-perf/v3 added the Service section (the wfit-serve loadgen); v4
// added the Soak section (the long-horizon bounded-memory run); v5 added
// the Pipeline section (the group-commit ingest-throughput comparison);
// v6 added the Failover section (the replicated-pair kill test: blip
// latency across promotion and steady-state replication lag); v7 added
// the Obs section (metrics-off vs metrics-on ingest overhead and the
// slowest-statement trace attribution); v8 added the Gauntlet section
// (the engine × scenario matrix of OPT-normalized total work); v9
// dropped the perf sides' cache_hits and cache_hit_rate (the what-if
// optimizer no longer memoizes, so whatif_calls counts every probe);
// v10 dropped the Service and Obs sections (e2ebench measures the
// service end to end); v11 replaced the serial and parallel sides, their
// speedup and their identical-results flag with the one analysis side (a
// statement's analysis runs on one goroutine); v12 dropped the Pipeline
// modes' pipeline, spec_hits and spec_misses (the service no longer
// speculates).
type PerfReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	Cores      int    `json:"cores"`
	Statements int    `json:"statements"`
	// Analysis is the measured analysis loop.
	Analysis *PerfSide `json:"analysis,omitempty"`
	// Soak is the long-horizon bounded-memory run (rotating schemas with
	// candidate retirement and registry compaction); nil when skipped.
	Soak *SoakReport `json:"soak,omitempty"`
	// Pipeline is the ingest-throughput comparison (per-record commits
	// vs WAL group commit, with and without fsync); nil when skipped.
	Pipeline *PipelinePerf `json:"pipeline,omitempty"`
	// Failover is the replicated-pair kill test (client-observed outage
	// blip across standby promotion, acked-loss accounting, replication
	// lag); nil when skipped.
	Failover *FailoverPerf `json:"failover,omitempty"`
	// Gauntlet is the engine × scenario matrix (every registered tuner
	// engine over every workload profile, OPT-normalized); nil when
	// skipped.
	Gauntlet *GauntletReport `json:"gauntlet,omitempty"`
}

// PerfSchema is the schema version stamped on every PerfReport (see
// PerfReport for the history).
const PerfSchema = "wfit-perf/v12"

// RunPerf evaluates the full WFIT once and returns a report holding the
// measured analysis side. It runs alone (no concurrent runs) and starts
// from a collected heap, so earlier runs' garbage does not bias it.
func (e *Env) RunPerf() *PerfReport {
	runtime.GC()
	options := core.DefaultOptions()
	options.IdxCnt = e.Options.IdxCnt
	options.StateCnt = e.middle()
	algo := e.NewWFITAutoAlgo("PERF", options)
	run := e.Run(RunSpec{Algo: algo, TrackAllocs: true})

	n := len(run.StmtAnalyze)
	side := &PerfSide{
		WallMSTotal:        float64(run.AnalyzeTime.Microseconds()) / 1e3,
		PerStmtWallUS:      make([]float64, n),
		WhatIfCalls:        algo.WhatIfCalls(),
		WhatIfPerStmt:      NewOverhead(algo.IBGNodeCounts()),
		FinalRatio:         run.Ratio[len(run.Ratio)-1],
		TotalWork:          run.TotWork[len(run.TotWork)-1],
		OptNormalizedRatio: run.Ratio,
	}
	sorted := make([]float64, n)
	for i, d := range run.StmtAnalyze {
		us := float64(d.Nanoseconds()) / 1e3
		side.PerStmtWallUS[i] = us
		sorted[i] = us
	}
	sort.Float64s(sorted)
	if n > 0 {
		total := 0.0
		for _, us := range sorted {
			total += us
		}
		side.USPerStmtMean = total / float64(n)
		side.USPerStmtP50 = sorted[n/2]
		side.USPerStmtP90 = sorted[n*9/10]
		side.USPerStmtP99 = sorted[n*99/100]
		side.USPerStmtMax = sorted[n-1]
	}
	side.AllocsPerStmtMean, side.AllocsPerStmtP50, _, side.AllocsPerStmtMax =
		distribution(run.StmtAllocs, sorted)
	side.BytesPerStmtMean, side.BytesPerStmtP50, side.BytesPerStmtP90, side.BytesPerStmtMax =
		distribution(run.StmtAllocBytes, sorted)
	return &PerfReport{
		Schema:     PerfSchema,
		GoVersion:  runtime.Version(),
		Cores:      runtime.NumCPU(),
		Statements: len(e.Workload.Statements),
		Analysis:   side,
	}
}

// distribution summarizes a per-statement counter series, reusing the
// caller's float scratch for the sort.
func distribution(series []uint64, scratch []float64) (mean, p50, p90, max float64) {
	n := len(series)
	if n == 0 || len(scratch) < n {
		return 0, 0, 0, 0
	}
	scratch = scratch[:n]
	total := 0.0
	for i, v := range series {
		scratch[i] = float64(v)
		total += float64(v)
	}
	sort.Float64s(scratch)
	return total / float64(n), scratch[n/2], scratch[n*9/10], scratch[n-1]
}
