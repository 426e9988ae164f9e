package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// finest returns the finest configured partition granularity.
func (e *Env) finest() int { return e.Options.StateCnts[0] }

// coarsest returns the coarsest configured granularity.
func (e *Env) coarsest() int {
	return e.Options.StateCnts[len(e.Options.StateCnts)-1]
}

// middle returns the middle granularity (the paper's default 500), falling
// back to the finest when only one is configured.
func (e *Env) middle() int {
	if len(e.Options.StateCnts) >= 2 {
		return e.Options.StateCnts[1]
	}
	return e.Options.StateCnts[0]
}

// RunFig8 reproduces Figure 8: baseline recommendation quality of WFIT at
// several stateCnt granularities, WFIT-IND, and BC, all normalized by
// OPT. The runs are independent and evaluate concurrently.
func (e *Env) RunFig8() []*RunResult {
	var specs []RunSpec
	for _, sc := range e.Options.StateCnts {
		name := fmt.Sprintf("WFIT-%d", sc)
		specs = append(specs, RunSpec{Algo: e.NewWFITFixedAlgo(name, e.Partitions[sc])})
	}
	specs = append(specs,
		RunSpec{Algo: e.NewWFITIndAlgo("WFIT-IND")},
		RunSpec{Algo: e.NewBCAlgo("BC")})
	return e.RunAll(specs...)
}

// RunFig9 reproduces Figure 9: the effect of prescient good feedback and
// adversarial bad feedback on WFIT (stateCnt = middle granularity).
func (e *Env) RunFig9() []*RunResult {
	part := e.Partitions[e.middle()]
	good := workload.VotesAt(workload.ScheduleVotes(e.Opt.Schedule))
	bad := workload.VotesAt(workload.InvertVotes(workload.ScheduleVotes(e.Opt.Schedule)))

	return e.RunAll(
		RunSpec{Algo: e.NewWFITFixedAlgo("GOOD", part), Votes: good},
		RunSpec{Algo: e.NewWFITFixedAlgo("WFIT", part)},
		RunSpec{Algo: e.NewWFITFixedAlgo("BAD", part), Votes: bad},
	)
}

// RunFig10 reproduces Figure 10: good feedback under the independence
// assumption, where the DBA's votes compensate for WFIT's inaccurate
// internal statistics.
func (e *Env) RunFig10() []*RunResult {
	good := workload.VotesAt(workload.ScheduleVotes(e.Opt.Schedule))
	return e.RunAll(
		RunSpec{Algo: e.NewWFITIndAlgo("GOOD-IND"), Votes: good},
		RunSpec{Algo: e.NewWFITIndAlgo("WFIT-IND")},
	)
}

// RunFig11 reproduces Figure 11: delayed acceptance, where the DBA only
// requests and accepts recommendations every T statements (T = 1 grants
// WFIT full autonomy).
func (e *Env) RunFig11() []*RunResult {
	part := e.Partitions[e.middle()]
	lags := []int{1, 25, 50, 75}
	var specs []RunSpec
	for _, lag := range lags {
		name := "WFIT"
		if lag > 1 {
			name = fmt.Sprintf("LAG %d", lag)
		}
		specs = append(specs, RunSpec{
			Algo:        e.NewWFITFixedAlgo(name, part),
			AcceptEvery: lag,
		})
	}
	return e.RunAll(specs...)
}

// Fig12Result bundles the AUTO-vs-FIXED comparison with the candidate-
// maintenance statistics the paper reports in §6.2.
type Fig12Result struct {
	Runs          []*RunResult
	CandidateCnt  int // candidates mined online (paper: ~300)
	Repartitions  int // partition changes (paper: 147)
	WhatIfCalls   int64
	WhatIfPerStmt Overhead
}

// RunFig12 reproduces Figure 12: full WFIT with automatic candidate and
// partition maintenance (AUTO) versus the fixed-partition variant (FIXED).
func (e *Env) RunFig12() *Fig12Result {
	options := core.DefaultOptions()
	options.IdxCnt = e.Options.IdxCnt
	options.StateCnt = e.middle()
	auto := e.NewWFITAutoAlgo("AUTO", options)
	fixed := e.NewWFITFixedAlgo("FIXED", e.Partitions[e.middle()])
	runs := e.RunAll(RunSpec{Algo: auto}, RunSpec{Algo: fixed})

	st := auto.Engine().Status()
	return &Fig12Result{
		Runs:          runs,
		CandidateCnt:  st.UniverseSize,
		Repartitions:  st.Repartitions,
		WhatIfCalls:   auto.WhatIfCalls(),
		WhatIfPerStmt: NewOverhead(auto.IBGNodeCounts()),
	}
}

// Overhead summarizes a per-statement count distribution.
type Overhead struct {
	Min, Max, Mean float64
	P50, P90       float64
}

// NewOverhead computes distribution statistics.
func NewOverhead(counts []int) Overhead {
	if len(counts) == 0 {
		return Overhead{}
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	total := 0
	for _, c := range sorted {
		total += c
	}
	return Overhead{
		Min:  float64(sorted[0]),
		Max:  float64(sorted[len(sorted)-1]),
		Mean: float64(total) / float64(len(sorted)),
		P50:  float64(sorted[len(sorted)/2]),
		P90:  float64(sorted[len(sorted)*9/10]),
	}
}

// OverheadReport is the §6.2 overhead experiment: analysis time per
// statement and what-if optimizer calls per statement for the full WFIT.
type OverheadReport struct {
	PerStmtAnalysis time.Duration
	WhatIfPerStmt   Overhead
	TotalWhatIf     int64
	Statements      int
}

// RunOverhead measures tuning overhead with the full WFIT (the deployment
// configuration, where WFIT performs its own what-if calls).
func (e *Env) RunOverhead() *OverheadReport {
	options := core.DefaultOptions()
	options.IdxCnt = e.Options.IdxCnt
	options.StateCnt = e.middle()
	auto := e.NewWFITAutoAlgo("AUTO", options)
	run := e.Run(RunSpec{Algo: auto})
	n := len(e.Workload.Statements)
	return &OverheadReport{
		PerStmtAnalysis: run.AnalyzeTime / time.Duration(n),
		WhatIfPerStmt:   NewOverhead(auto.IBGNodeCounts()),
		TotalWhatIf:     auto.WhatIfCalls(),
		Statements:      n,
	}
}
