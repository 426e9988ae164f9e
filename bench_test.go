// Package repro's top-level benchmarks regenerate every figure of the
// paper's evaluation (§6) plus the overhead numbers. Each figure bench
// reports the algorithms' final OPT-normalized total-work ratios as custom
// metrics, so `go test -bench=.` reproduces the quantities the paper
// plots. Micro-benchmarks cover the hot paths of the substrate.
//
// The full experimental environment (1600-statement workload, candidate
// mining, per-statement index benefit graphs, offline optimum) is built
// once and shared across benchmarks.
package repro

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ibg"
	"repro/internal/index"
	"repro/internal/interaction"
	"repro/internal/opt"
	"repro/internal/sqlmini"
	"repro/internal/stmt"
	"repro/internal/whatif"
	"repro/internal/workload"
)

var (
	fullEnvOnce sync.Once
	fullEnv     *bench.Env
)

// fullEnvironment lazily builds the paper-scale experimental environment.
func fullEnvironment(b *testing.B) *bench.Env {
	b.Helper()
	fullEnvOnce.Do(func() {
		fullEnv = bench.NewEnv(bench.DefaultOptions())
	})
	return fullEnv
}

// reportRuns attaches each run's final ratio as a benchmark metric.
func reportRuns(b *testing.B, runs []*bench.RunResult) {
	for _, r := range runs {
		b.ReportMetric(r.Ratio[len(r.Ratio)-1], "ratio:"+sanitizeMetric(r.Name))
	}
}

func sanitizeMetric(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkFig8Baseline regenerates Figure 8: WFIT at stateCnt 2000/500/
// 100, WFIT-IND, and BC against OPT on the 1600-statement workload.
func BenchmarkFig8Baseline(b *testing.B) {
	env := fullEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := env.RunFig8()
		if i == b.N-1 {
			reportRuns(b, runs)
		}
	}
}

// BenchmarkFig9Feedback regenerates Figure 9: GOOD / plain / BAD feedback.
func BenchmarkFig9Feedback(b *testing.B) {
	env := fullEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := env.RunFig9()
		if i == b.N-1 {
			reportRuns(b, runs)
		}
	}
}

// BenchmarkFig10FeedbackInd regenerates Figure 10: good feedback under the
// independence assumption.
func BenchmarkFig10FeedbackInd(b *testing.B) {
	env := fullEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := env.RunFig10()
		if i == b.N-1 {
			reportRuns(b, runs)
		}
	}
}

// BenchmarkFig11Lag regenerates Figure 11: delayed acceptance with
// T ∈ {1, 25, 50, 75}.
func BenchmarkFig11Lag(b *testing.B) {
	env := fullEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := env.RunFig11()
		if i == b.N-1 {
			reportRuns(b, runs)
		}
	}
}

// BenchmarkFig12Auto regenerates Figure 12: full WFIT with automatic
// candidate/partition maintenance versus the fixed-partition variant.
func BenchmarkFig12Auto(b *testing.B) {
	env := fullEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := env.RunFig12()
		if i == b.N-1 {
			reportRuns(b, res.Runs)
			b.ReportMetric(float64(res.CandidateCnt), "candidates")
			b.ReportMetric(float64(res.Repartitions), "repartitions")
			b.ReportMetric(res.WhatIfPerStmt.Mean, "whatif/stmt")
		}
	}
}

// BenchmarkOverheadPerQuery measures WFIT's per-statement analysis
// overhead in deployment configuration (§6.2).
func BenchmarkOverheadPerQuery(b *testing.B) {
	env := fullEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := env.RunOverhead()
		if i == b.N-1 {
			b.ReportMetric(float64(o.PerStmtAnalysis.Microseconds()), "µs/stmt")
			b.ReportMetric(o.WhatIfPerStmt.Mean, "whatif/stmt")
			b.ReportMetric(o.WhatIfPerStmt.P90, "whatif/stmt-p90")
		}
	}
}

// --- ablations of design choices DESIGN.md calls out ---

// BenchmarkAblationNoRetirement re-runs the Figure 12 AUTO configuration
// with the DBA's idle-index retirement disabled. Without out-of-band
// drops (and their implicit negative votes), the materialized set grows
// until the monitoring budget idxCnt − |M| freezes, and late phases
// cannot be specialized — quantifying why the retirement protocol exists.
func BenchmarkAblationNoRetirement(b *testing.B) {
	env := fullEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		options := core.DefaultOptions()
		options.IdxCnt = env.Options.IdxCnt
		options.StateCnt = env.Options.StateCnts[0]
		withRet := env.Run(bench.RunSpec{Algo: env.NewWFITAutoAlgo("AUTO", options)})
		options.Seed++ // fresh tuner state; same partitioning behaviour
		options.Seed--
		noRet := env.Run(bench.RunSpec{
			Algo:            env.NewWFITAutoAlgo("AUTO-noretire", options),
			RetireIdleAfter: -1,
		})
		if i == b.N-1 {
			b.ReportMetric(withRet.Ratio[len(withRet.Ratio)-1], "ratio:AUTO")
			b.ReportMetric(noRet.Ratio[len(noRet.Ratio)-1], "ratio:AUTO-noretire")
		}
	}
}

// BenchmarkAblationPartitionGranularity sweeps the stateCnt knob beyond
// Figure 8's three points, including full independence, quantifying the
// cost of dropping interaction information (§5.2's trade-off).
func BenchmarkAblationPartitionGranularity(b *testing.B) {
	env := fullEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var last *bench.RunResult
		for _, sc := range env.Options.StateCnts {
			last = env.Run(bench.RunSpec{
				Algo: env.NewWFITFixedAlgo(fmt.Sprintf("WFIT-%d", sc), env.Partitions[sc]),
			})
			if i == b.N-1 {
				b.ReportMetric(last.Ratio[len(last.Ratio)-1], fmt.Sprintf("ratio:stateCnt%d", sc))
			}
		}
		ind := env.Run(bench.RunSpec{Algo: env.NewWFITIndAlgo("IND")})
		if i == b.N-1 {
			b.ReportMetric(ind.Ratio[len(ind.Ratio)-1], "ratio:independent")
		}
		_ = last
	}
}

// --- micro-benchmarks over the substrate ---

// microEnv builds a small shared fixture for substrate benchmarks.
type microFixture struct {
	model *cost.Model
	reg   *index.Registry
	optm  *whatif.Optimizer
	query *stmt.Statement
	cands index.Set
}

var (
	microOnce sync.Once
	micro     *microFixture
)

func microEnv(b *testing.B) *microFixture {
	b.Helper()
	microOnce.Do(func() {
		cat, _ := datagen.Build()
		reg := index.NewRegistry()
		model := cost.NewModel(cat, reg, cost.DefaultParams())
		q := &stmt.Statement{
			ID: 1, Kind: stmt.Query,
			Tables: []string{"tpch.orders", "tpch.lineitem"},
			Preds: []stmt.Pred{
				{Table: "tpch.orders", Column: "o_orderdate", Selectivity: 0.002},
				{Table: "tpch.lineitem", Column: "l_shipdate", Selectivity: 0.008},
				{Table: "tpch.lineitem", Column: "l_extendedprice", Selectivity: 0.02},
			},
			Joins: []stmt.Join{{
				LeftTable: "tpch.lineitem", LeftColumn: "l_orderkey",
				RightTable: "tpch.orders", RightColumn: "o_orderkey",
			}},
		}
		ex := cost.NewExtractor(model)
		cands := ex.Extract(q)
		micro = &microFixture{
			model: model, reg: reg, optm: whatif.New(model), query: q, cands: cands,
		}
	})
	return micro
}

// BenchmarkWhatIfCost measures one what-if optimization of a two-table
// join query.
func BenchmarkWhatIfCost(b *testing.B) {
	m := microEnv(b)
	cfg := m.cands
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.model.CostUsed(m.query, cfg)
	}
}

// BenchmarkIBGBuild measures index-benefit-graph construction.
func BenchmarkIBGBuild(b *testing.B) {
	m := microEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := ibg.Build(m.optm, m.query, m.cands)
		if g.NodeCount() == 0 {
			b.Fatal("empty IBG")
		}
	}
}

// wideFixture holds the largest index benefit graphs of the default
// generated workload, and its narrow ones, as statements with the
// candidates to build over.
type wideFixture struct {
	optm  *whatif.Optimizer
	stmts []*stmt.Statement
	cands []index.Set
	nodes int // total nodes of one build of each
	// narrowStmts and narrowCands hold, in stream order, every statement
	// whose graph has at most narrowBits used indices.
	narrowStmts []*stmt.Statement
	narrowCands []index.Set
}

// wideGraphs is how many of the largest graphs BenchmarkIBGBuildWide
// cycles through.
const wideGraphs = 8

// narrowBits is the widest used union whose benefit and doi statistics
// enumerate every context instead of node contexts.
const narrowBits = 12

var (
	wideOnce sync.Once
	wide     *wideFixture
)

// wideEnv builds every statement's graph of the default workload over the
// candidates mined up to it, as WFIT does, and keeps the wideGraphs
// largest by node count and every one of at most narrowBits used indices.
func wideEnv(b *testing.B) *wideFixture {
	b.Helper()
	wideOnce.Do(func() {
		cat, joins := datagen.Build()
		model := cost.NewModel(cat, index.NewRegistry(), cost.DefaultParams())
		ex := cost.NewExtractor(model)
		type built struct {
			s     *stmt.Statement
			cands index.Set
			nodes int
		}
		var all []built
		optm := whatif.New(model)
		wide = &wideFixture{optm: optm}
		mined := index.EmptySet
		for _, s := range workload.Generate(cat, joins, workload.DefaultOptions()).Statements {
			mined = mined.Union(ex.Extract(s))
			g := ibg.Build(optm, s, mined)
			all = append(all, built{s, mined, g.NodeCount()})
			if g.UsedUnion().Len() <= narrowBits {
				wide.narrowStmts = append(wide.narrowStmts, s)
				wide.narrowCands = append(wide.narrowCands, mined)
			}
			g.Release()
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].nodes > all[j].nodes })
		for _, c := range all[:wideGraphs] {
			wide.stmts = append(wide.stmts, c.s)
			wide.cands = append(wide.cands, c.cands)
			wide.nodes += c.nodes
		}
	})
	return wide
}

// BenchmarkIBGBuildWide measures construction of the largest graphs of
// the default generated workload (about a thousand nodes and more each),
// one build per iteration, cycling through them. Each graph is released
// after its build, as WFIT releases each statement's graph.
func BenchmarkIBGBuildWide(b *testing.B) {
	w := wideEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % wideGraphs
		ibg.Build(w.optm, w.stmts[k], w.cands[k]).Release()
	}
	b.ReportMetric(float64(w.nodes)/wideGraphs, "nodes/build")
}

// BenchmarkStatisticsWide measures the serial benefit and doi statistics
// of the graphs BenchmarkIBGBuildWide builds, which maximize over node
// contexts.
func BenchmarkStatisticsWide(b *testing.B) {
	w := wideEnv(b)
	benchStatistics(b, w.optm, w.stmts, w.cands)
}

// BenchmarkStatisticsNarrow measures the serial benefit and doi statistics
// of the default workload's graphs of at most narrowBits used indices,
// which maximize over every context. Each iteration builds a graph outside
// the timer, so run it at a fixed count (-benchtime=Nx): the automatic
// count is sized by the short statistics alone.
func BenchmarkStatisticsNarrow(b *testing.B) {
	w := wideEnv(b)
	benchStatistics(b, w.optm, w.narrowStmts, w.narrowCands)
}

// benchStatistics times Statistics on one graph per iteration, cycling
// through the statements in order. Each graph is built outside the timer
// and released after its statistics, as WFIT releases each statement's
// graph.
func benchStatistics(b *testing.B, optm *whatif.Optimizer, stmts []*stmt.Statement, cands []index.Set) {
	used := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(stmts)
		b.StopTimer()
		g := ibg.Build(optm, stmts[k], cands[k])
		used += g.UsedUnion().Len()
		b.StartTimer()
		g.Statistics(1e-6)
		b.StopTimer()
		g.Release()
		b.StartTimer()
	}
	b.ReportMetric(float64(used)/float64(b.N), "used/graph")
}

// BenchmarkIBGCostLookup measures configuration probes against a built
// graph (the operation WFA performs 2^|part| times per statement).
func BenchmarkIBGCostLookup(b *testing.B) {
	m := microEnv(b)
	g := ibg.Build(m.optm, m.query, m.cands)
	subsets := make([]index.Set, 0, 64)
	ids := m.cands.IDs()
	for mask := 0; mask < 64 && mask < 1<<len(ids); mask++ {
		var cur []index.ID
		for j := range ids {
			if mask&(1<<j) != 0 {
				cur = append(cur, ids[j])
			}
		}
		subsets = append(subsets, index.NewSet(cur...))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Cost(subsets[i%len(subsets)])
	}
}

// BenchmarkWFAAnalyze measures one work-function update over a 10-index
// part (1024 configurations).
func BenchmarkWFAAnalyze(b *testing.B) {
	reg := index.NewRegistry()
	var ids []index.ID
	for i := 0; i < 10; i++ {
		ids = append(ids, reg.Intern(index.Index{
			Table: "t", Columns: []string{fmt.Sprintf("c%d", i)},
			CreateCost: 100, DropCost: 1,
		}))
	}
	part := index.NewSet(ids...)
	wfa := core.NewWFA(reg, part, index.EmptySet)
	rng := rand.New(rand.NewSource(1))
	costs := make([]float64, 1024)
	for i := range costs {
		costs[i] = rng.Float64() * 100
	}
	costFn := func(cfg index.Set) float64 {
		return costs[wfa.MaskOf(cfg)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wfa.AnalyzeWithCost(costFn)
	}
}

// BenchmarkChoosePartition measures the randomized stable-partition search
// over 40 candidates, on sparse doi (most merges pair singletons), on
// dense doi (most merges grow larger parts), and at phased-dba's measured
// density: a median of 51 positive pairs out of 780. One Partitioner
// serves every iteration, as WFIT's does every statement, so the timing
// is the search's, not its scratch allocation's.
func BenchmarkChoosePartition(b *testing.B) {
	var ids []index.ID
	for i := 1; i <= 40; i++ {
		ids = append(ids, index.ID(i))
	}
	d := index.NewSet(ids...)
	for _, c := range []struct {
		name    string
		density float64
		count   int // exactly this many positive pairs, when set
	}{{"sparse", 0.15, 0}, {"dense", 0.9, 0}, {"phased", 0, 51}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			var picked map[int]bool
			if c.count > 0 {
				picked = make(map[int]bool)
				for _, k := range rng.Perm(len(ids) * (len(ids) - 1) / 2)[:c.count] {
					picked[k] = true
				}
			}
			var pairs []interaction.PairDoi
			for i, k := 0, 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j, k = j+1, k+1 {
					if picked[k] || picked == nil && rng.Float64() < c.density {
						pairs = append(pairs, interaction.PairDoi{A: ids[i], B: ids[j], Doi: rng.Float64() * 100})
					}
				}
			}
			pt := &interaction.Partitioner{
				StateCnt: 500, MaxPartSize: 14, RandCnt: 8,
				Rand: rand.New(rand.NewSource(7)),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = pt.Choose(d, nil, pairs)
			}
		})
	}
}

// BenchmarkOptDP measures the offline dynamic program on a 200-statement
// workload slice with a 12-index candidate set.
func BenchmarkOptDP(b *testing.B) {
	env := microEnv(b)
	reg := env.reg
	cands := env.cands
	partition := interaction.Partition{cands}
	if cands.Len() > 12 {
		partition = interaction.Partition{index.NewSet(cands.IDs()[:12]...)}
	}
	g := ibg.Build(env.optm, env.query, cands)
	costers := make([]core.StatementCost, 200)
	for i := range costers {
		costers[i] = g
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = opt.Compute(opt.Input{
			Reg: reg, Partition: partition, S0: index.EmptySet, Costers: costers,
		})
	}
}

// BenchmarkWorkloadGen measures benchmark workload generation.
func BenchmarkWorkloadGen(b *testing.B) {
	cat, joins := datagen.Build()
	opts := workload.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wl := workload.Generate(cat, joins, opts)
		if wl.Len() != 1600 {
			b.Fatal("bad workload")
		}
	}
}

// BenchmarkSQLParse measures the SQL front end.
func BenchmarkSQLParse(b *testing.B) {
	cat, _ := datagen.Build()
	p := sqlmini.NewParser(cat)
	sql := `SELECT count(*) FROM tpce.security t1, tpce.company t2, tpce.daily_market t0
		WHERE t1.s_pe BETWEEN 63.278 AND 86.091
		AND t2.co_open_date BETWEEN 100 AND 200
		AND t1.s_symb = t0.dm_s_symb AND t2.co_id = t1.s_co_id`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractCandidates measures per-statement candidate extraction.
func BenchmarkExtractCandidates(b *testing.B) {
	m := microEnv(b)
	ex := cost.NewExtractor(m.model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ex.Extract(m.query)
	}
}

// BenchmarkDeltaTransition measures transition-cost evaluation.
func BenchmarkDeltaTransition(b *testing.B) {
	m := microEnv(b)
	ids := m.cands.IDs()
	half := index.NewSet(ids[:len(ids)/2]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.reg.Delta(half, m.cands)
	}
}
