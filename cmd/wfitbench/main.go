// Command wfitbench regenerates the experimental study of "Semi-Automatic
// Index Tuning: Keeping DBAs in the Loop" (Schnaitter & Polyzotis, VLDB
// 2012): Figures 8–12 plus the §6.2 overhead numbers, over the simulated
// DBMS substrate.
//
// Usage:
//
//	wfitbench [-fig N] [-overhead] [-perf] [-gauntlet] [-small] [-csv]
//	          [-seed S] [-workers W] [-benchout FILE]
//
// Without -fig, every experiment runs in order, followed by the §6.2
// overhead numbers, a measurement of the per-statement analysis loop
// and the group-commit ingest comparison
// (the same run -throughput makes), written as a JSON trajectory file
// (-benchout, default BENCH_wfit.json). Output is an ASCII chart per
// figure (OPT-normalized total work over the workload), optionally
// followed by CSV series data. -gauntlet races every registered tuner
// engine over every workload scenario (the CI gauntlet-smoke entry
// point); alone it writes just the "gauntlet" section, with -perf it
// rides along.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/report"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the program body so error paths return instead of
// calling os.Exit directly — the deferred profile writers must flush
// even when a run fails partway.
func realMain() int {
	fig := flag.Int("fig", 0, "run a single figure (8..12); 0 runs everything")
	overhead := flag.Bool("overhead", false, "run only the overhead measurement")
	perf := flag.Bool("perf", false, "run only the analysis-loop benchmark and the ingest-throughput bench")
	small := flag.Bool("small", false, "use the scaled-down environment (fast sanity run)")
	csv := flag.Bool("csv", false, "print CSV series after each chart")
	seed := flag.Int64("seed", 0, "override the workload seed")
	width := flag.Int("width", 72, "chart width")
	height := flag.Int("height", 14, "chart height")
	workers := flag.Int("workers", 0, "worker bound for construction and runs (0 = one per CPU)")
	benchout := flag.String("benchout", "BENCH_wfit.json", "perf trajectory output file (empty disables)")
	throughput := flag.Bool("throughput", false, "run only the ingest-throughput bench and write its \"pipeline\" section (the CI throughput-smoke entry point)")
	failover := flag.Bool("failover", false, "run only the replicated-pair failover bench (kill the primary mid-stream, promote the standby through the router) and write its \"failover\" section (the CI failover-smoke entry point)")
	soak := flag.Bool("soak", false, "run the long-horizon bounded-memory soak (rotating schemas, candidate retirement, registry compaction); alone it writes just the soak section, with -perf it rides along")
	gauntlet := flag.Bool("gauntlet", false, "run the engine × scenario gauntlet (every registered tuner over every workload profile) on the fixed compact environment; alone it writes just the \"gauntlet\" section, with -perf it rides along")
	soakStatements := flag.Int("soak-statements", 0, "soak stream length (0 = the 10k default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured runs to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create %s: %v\n", *memprofile, err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "write alloc profile: %v\n", err)
			}
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuprofile, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start CPU profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("CPU profile written to %s\n", *cpuprofile)
		}()
	}

	if *throughput {
		p, code := runThroughput()
		if code != 0 {
			return code
		}
		return writeReport(&bench.PerfReport{Schema: bench.PerfSchema, Pipeline: p}, *benchout)
	}

	if *failover {
		p, code := runFailover()
		if code != 0 {
			return code
		}
		return writeReport(&bench.PerfReport{Schema: bench.PerfSchema, Failover: p}, *benchout)
	}

	var soakReport *bench.SoakReport
	if *soak {
		r, code := runSoak(*soakStatements)
		if code != 0 {
			return code
		}
		soakReport = r
	}

	var gauntletReport *bench.GauntletReport
	if *gauntlet {
		gauntletReport = runGauntlet(*workers)
	}
	if (soakReport != nil || gauntletReport != nil) && !*perf && *fig == 0 && !*overhead {
		// Soak/gauntlet-only invocation: no experiment environment needed.
		return writeReport(&bench.PerfReport{
			Schema:   bench.PerfSchema,
			Soak:     soakReport,
			Gauntlet: gauntletReport,
		}, *benchout)
	}

	opts := bench.DefaultOptions()
	if *small {
		opts = bench.SmallOptions()
	}
	if *seed != 0 {
		opts.Workload.Seed = *seed
	}
	opts.Workers = *workers

	fmt.Printf("building environment: %d statements, idxCnt=%d, stateCnts=%v ...\n",
		opts.Workload.Phases*opts.Workload.PerPhase, opts.IdxCnt, opts.StateCnts)
	start := time.Now()
	env := bench.NewEnv(opts)
	n := len(env.Opt.PrefixTotal) - 1
	fmt.Printf("environment ready in %v: universe=%d candidates, C=%d\n",
		time.Since(start).Round(time.Millisecond), env.Universe.Len(), env.FixedC.Len())
	fmt.Printf("OPT total work=%.4g (schedule replay with true costs: %.4g, gap %+.2f%%)\n\n",
		env.Opt.PrefixTotal[n], env.OptReplay[n],
		100*(env.OptReplay[n]-env.Opt.PrefixTotal[n])/env.Opt.PrefixTotal[n])

	// The figure/overhead paths don't write the perf report themselves;
	// when a soak or gauntlet rode along, persist it so the run is never
	// discarded.
	writeRideAlongs := func(code int) int {
		if code == 0 && (soakReport != nil || gauntletReport != nil) {
			return writeReport(&bench.PerfReport{
				Schema:   bench.PerfSchema,
				Soak:     soakReport,
				Gauntlet: gauntletReport,
			}, *benchout)
		}
		return code
	}
	if *overhead {
		printOverhead(env)
		return writeRideAlongs(0)
	}
	if *perf {
		return runPerf(env, *benchout, soakReport, gauntletReport)
	}

	run := func(n int) int {
		switch n {
		case 8:
			printRuns(env, "Figure 8: baseline performance (total work ratio, OPT=1)",
				env.RunFig8(), *csv, *width, *height)
		case 9:
			printRuns(env, "Figure 9: effect of DBA feedback",
				env.RunFig9(), *csv, *width, *height)
		case 10:
			printRuns(env, "Figure 10: feedback under the independence assumption",
				env.RunFig10(), *csv, *width, *height)
		case 11:
			printRuns(env, "Figure 11: effect of delayed responses",
				env.RunFig11(), *csv, *width, *height)
		case 12:
			res := env.RunFig12()
			printRuns(env, "Figure 12: automatic maintenance of the stable partition",
				res.Runs, *csv, *width, *height)
			fmt.Printf("candidates mined online: %d (paper: ~300)\n", res.CandidateCnt)
			fmt.Printf("partition changes:       %d (paper: 147)\n", res.Repartitions)
			fmt.Printf("what-if calls:           %d total, per stmt min/mean/max = %.0f/%.1f/%.0f\n\n",
				res.WhatIfCalls, res.WhatIfPerStmt.Min, res.WhatIfPerStmt.Mean, res.WhatIfPerStmt.Max)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %d (want 8..12)\n", n)
			return 2
		}
		return 0
	}

	if *fig != 0 {
		return writeRideAlongs(run(*fig))
	}
	for _, n := range []int{8, 9, 10, 11, 12} {
		if code := run(n); code != 0 {
			return code
		}
	}
	printOverhead(env)
	return runPerf(env, *benchout, soakReport, gauntletReport)
}

// runThroughput drives the ingest-throughput bench against a temp data
// dir and prints the mode comparison.
func runThroughput() (*bench.PipelinePerf, int) {
	dataDir, err := os.MkdirTemp("", "wfit-pipeline-bench-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipeline bench temp dir: %v\n", err)
		return nil, 1
	}
	defer os.RemoveAll(dataDir)
	fmt.Println("Ingest throughput: per-record commits vs WAL group commit")
	p, err := bench.RunPipeline(bench.PipelineOptions{DataDir: dataDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipeline bench: %v\n", err)
		return nil, 1
	}
	printPipeline(p)
	return p, 0
}

// printPipeline renders the pipeline bench's mode table and speedups.
func printPipeline(p *bench.PipelinePerf) {
	for _, m := range p.Modes {
		fmt.Printf("  %-14s %8.0f stmts/s, ack mean %7.0f µs (p50 %.0f, p99 %.0f), %d group commits / %d records\n",
			m.Name, m.StmtsPerSec, m.AckUSMean, m.AckUSP50, m.AckUSP99,
			m.GroupCommits, m.GroupCommitRecords)
	}
	fmt.Printf("  group-commit speedup: %.2fx under fsync, %.2fx without; trajectories identical: %v\n",
		p.SpeedupFsync, p.SpeedupNoFsync, p.TotalWorkIdentical)
}

// runFailover drives the replicated-pair kill test against a temp data
// dir and prints the outage accounting.
func runFailover() (*bench.FailoverPerf, int) {
	dataDir, err := os.MkdirTemp("", "wfit-failover-bench-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "failover bench temp dir: %v\n", err)
		return nil, 1
	}
	defer os.RemoveAll(dataDir)
	fmt.Println("Failover: sync-replicated pair behind the router, primary killed mid-stream")
	p, err := bench.RunFailover(bench.FailoverOptions{DataDir: dataDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "failover bench: %v\n", err)
		return nil, 1
	}
	fmt.Printf("  steady ingest %7.0f µs mean (p50 %.0f, p90 %.0f, p99 %.0f), replication lag mean %.2f max %d over %d samples\n",
		p.SteadyUSMean, p.SteadyUSP50, p.SteadyUSP90, p.SteadyUSP99, p.LagMean, p.LagMax, p.LagSamples)
	fmt.Printf("  kill at statement %d: blip %.0f ms (%d refused attempts), acked %d, on standby at promotion %d, LOST %d\n",
		p.FailAt, p.BlipMS, p.BlipRetries, p.AckedBeforeKill, p.OnStandbyAtPromotion, p.LostAcked)
	fmt.Printf("  post-failover ingest %7.0f µs mean (p50 %.0f, p99 %.0f), wall %.1fs\n",
		p.PostUSMean, p.PostUSP50, p.PostUSP99, p.WallMS/1e3)
	if p.LostAcked != 0 {
		fmt.Fprintf(os.Stderr, "failover bench: %d ACKNOWLEDGED STATEMENTS LOST\n", p.LostAcked)
		return nil, 1
	}
	return p, 0
}

// runGauntlet races every registered tuner engine over every workload
// scenario. It always uses the fixed compact environment (the scenario
// matrix measures OPT-normalized decision quality, not wall time), so
// the per-cell trajectory digests are comparable across hosts and
// against the committed BENCH_wfit.json baseline — which is exactly
// what the CI gauntlet smoke does. Only the worker bound is taken from
// the command line: the trajectories are bit-identical at any worker
// count, so it shifts wall time without moving a digest.
func runGauntlet(workers int) *bench.GauntletReport {
	o := bench.SmallOptions()
	o.Workers = workers
	fmt.Println("Gauntlet: every registered engine × every workload scenario (OPT-normalized total work)")
	g := bench.RunGauntlet(o)
	headers := []string{"scenario"}
	for _, en := range g.Engines {
		headers = append(headers, en+" ratio", en+" chg")
	}
	rows := make([][]string, 0, len(g.Scenarios))
	for _, sc := range g.Scenarios {
		row := []string{sc}
		for _, en := range g.Engines {
			c := g.Cell(en, sc)
			if c == nil {
				row = append(row, "-", "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", c.FinalRatio), fmt.Sprintf("%d", c.Changes))
		}
		rows = append(rows, row)
	}
	fmt.Println(report.Table(headers, rows))
	return g
}

// runSoak drives the bounded-memory soak and prints its summary.
func runSoak(statements int) (*bench.SoakReport, int) {
	o := bench.DefaultSoakOptions()
	if statements > 0 {
		o.Statements = statements
	}
	fmt.Printf("soak: %d statements over rotating schemas (retire-after %d, compact every %d) ...\n",
		o.Statements, o.RetireAfter, o.CompactEvery)
	r, err := bench.RunSoak(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		return nil, 1
	}
	fmt.Printf("  mined %d candidates over the run; retained universe peak/final %d/%d, registry peak/final %d/%d\n",
		r.MinedTotal, r.PeakUniverse, r.FinalUniverse, r.PeakRegistry, r.FinalRegistry)
	fmt.Printf("  stats entries peak/final %d/%d, snapshot bytes peak/final %d/%d, heap peak %.1f MB\n",
		r.PeakStatsEntries, r.FinalStatsEntries, r.PeakSnapshotBytes, r.FinalSnapshotBytes,
		float64(r.PeakHeapBytes)/(1<<20))
	fmt.Printf("  retired %d, compacted %d, wall %.1fs\n",
		r.RetiredTotal, r.CompactedTotal, r.WallMS/1e3)
	return r, 0
}

// writeReport marshals a perf report to outPath (empty disables).
func writeReport(r *bench.PerfReport, outPath string) int {
	if outPath == "" {
		return 0
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "marshal perf report: %v\n", err)
		return 1
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", outPath, err)
		return 1
	}
	fmt.Printf("  trajectory written to %s\n", outPath)
	return 0
}

// runPerf measures the per-statement analysis loop, then the
// group-commit ingest comparison, prints both, and writes the JSON
// trajectory. It returns a process exit code instead of exiting so
// deferred profile writers still run.
func runPerf(env *bench.Env, outPath string, soak *bench.SoakReport, gauntlet *bench.GauntletReport) int {
	fmt.Println("\nAnalysis-loop perf: full WFIT, one goroutine per statement analysis")
	r := env.RunPerf()
	r.Soak = soak
	r.Gauntlet = gauntlet
	s := r.Analysis
	fmt.Printf("  %8.1f µs/stmt (p50 %.1f, p90 %.1f, p99 %.1f, max %.1f), %d what-if calls\n",
		s.USPerStmtMean, s.USPerStmtP50, s.USPerStmtP90, s.USPerStmtP99, s.USPerStmtMax,
		s.WhatIfCalls)
	fmt.Printf("  %8.0f allocs/stmt, %.0f bytes/stmt mean (p50 %.0f, p90 %.0f, max %.0f)\n",
		s.AllocsPerStmtMean, s.BytesPerStmtMean,
		s.BytesPerStmtP50, s.BytesPerStmtP90, s.BytesPerStmtMax)
	fmt.Printf("  OPT-normalized final ratio %.3f on %d core(s)\n", s.FinalRatio, r.Cores)

	fmt.Println()
	p, code := runThroughput()
	if code != 0 {
		return code
	}
	r.Pipeline = p

	return writeReport(r, outPath)
}

// printRuns charts the OPT-normalized ratio curves of a set of runs.
func printRuns(env *bench.Env, title string, runs []*bench.RunResult, csv bool, width, height int) {
	var series []report.Series
	for _, r := range runs {
		series = append(series, report.Series{Name: r.Name, Y: r.Ratio})
	}
	fmt.Println(report.Chart(title, series, width, height))

	rows := make([][]string, 0, len(runs))
	for _, r := range runs {
		n := len(r.TotWork) - 1
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.3f", r.Ratio[n]),
			fmt.Sprintf("%.4g", r.TotWork[n]),
			fmt.Sprintf("%.4g", r.TransitionCost),
			fmt.Sprintf("%d", r.Changes),
			r.AnalyzeTime.Round(time.Millisecond).String(),
		})
	}
	fmt.Println(report.Table(
		[]string{"algorithm", "final ratio", "total work", "transition cost", "changes", "analyze time"},
		rows))
	if csv {
		fmt.Println(report.CSV(series))
	}
}

// printOverhead reports the §6.2 overhead numbers.
func printOverhead(env *bench.Env) {
	o := env.RunOverhead()
	fmt.Println("Overhead (§6.2), full WFIT with online candidate maintenance:")
	fmt.Printf("  analysis time per statement: %v (paper: ~300ms on 2GHz Opteron + DB2)\n",
		o.PerStmtAnalysis.Round(time.Microsecond))
	fmt.Printf("  what-if calls per statement: min=%.0f p50=%.0f mean=%.1f p90=%.0f max=%.0f (paper: 5..100)\n",
		o.WhatIfPerStmt.Min, o.WhatIfPerStmt.P50, o.WhatIfPerStmt.Mean,
		o.WhatIfPerStmt.P90, o.WhatIfPerStmt.Max)
	fmt.Printf("  total what-if calls: %d over %d statements\n", o.TotalWhatIf, o.Statements)
}
