package bench

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/par"
	"repro/internal/stmt"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// Algorithm is the harness-facing adapter over a tuning algorithm. Its
// session-facing half IS the engine contract (tuner.Core) — any
// registered tuner engine drops into the harness through EngineAlgo,
// and the fixed-candidate baselines (WFA+, BC) implement the same
// methods directly.
type Algorithm interface {
	tuner.Core
	// Name labels the run.
	Name() string
	// Analyze observes statement s (1-based position i); sc prices it
	// over the fixed candidate set. Engines with online candidate
	// maintenance ignore sc and extract their own candidates.
	Analyze(i int, s *stmt.Statement, sc core.StatementCost)
}

// RunSpec describes one evaluation run.
type RunSpec struct {
	Algo Algorithm
	// Votes are explicit feedback events grouped by statement position
	// (see workload.VotesAt). Applied after the statement is analyzed
	// and before the recommendation is recorded.
	Votes map[int][]workload.VoteEvent
	// AcceptEvery models the delayed-acceptance DBA of Figure 11: the
	// recommendation is materialized only every T statements, with
	// implicit lease-renewal votes at each acceptance. Values ≤ 1 mean
	// the DBA adopts every recommendation immediately (no votes).
	AcceptEvery int
	// RetireIdleAfter models the DBA's out-of-band storage hygiene: an
	// index that no plan has used for this many statements is dropped,
	// and the tuner learns about it as an implicit negative vote (§3.1's
	// out-of-band feedback). 0 means the default (300); negative
	// disables retirement.
	RetireIdleAfter int
	// TrackAllocs records per-statement heap allocation counts and bytes
	// (runtime.ReadMemStats deltas around the algorithm interactions).
	// The snapshots run outside the timed sections, but they do add a
	// small fixed cost per statement — leave this off unless the run is a
	// perf measurement.
	TrackAllocs bool
}

// defaultRetireIdleAfter is the modeled DBA's idle-index retirement
// horizon (about a phase and a half of the benchmark workload).
const defaultRetireIdleAfter = 300

// RunResult captures one run's evaluation.
type RunResult struct {
	Name string
	// TotWork[n] is the cumulative total work after n statements
	// (query cost under the adopted configuration plus transition costs).
	TotWork []float64
	// Ratio[n] = totWork(OPT, Q_n) / TotWork[n] — the paper's
	// performance metric, 1.0 meaning optimal. Ratio[0] = 1.
	Ratio []float64
	// TransitionCost is the δ component of the final total work.
	TransitionCost float64
	// Changes counts materialized-set changes.
	Changes int
	// FinalConfig is the materialized set after the workload.
	FinalConfig index.Set
	// AnalyzeTime is the total time spent inside the algorithm.
	AnalyzeTime time.Duration
	// StmtAnalyze[i] is the wall time the algorithm spent on statement
	// i+1 (analysis plus any feedback deliveries at that position).
	StmtAnalyze []time.Duration
	// StmtAllocs[i] and StmtAllocBytes[i] count the heap allocations and
	// allocated bytes for statement i+1's algorithm interactions plus the
	// thin harness bookkeeping between them (recommendation comparison,
	// transition pricing, retirement tracking) — a small constant per
	// statement, so the series remains a faithful regression signal for
	// the tuner's allocation behavior. Only populated when
	// RunSpec.TrackAllocs is set.
	StmtAllocs     []uint64
	StmtAllocBytes []uint64
}

// Run evaluates one algorithm over the environment's workload. Total work
// always prices the full adopted configuration with the true cost model
// (never the partition-decomposed approximation).
func (e *Env) Run(spec RunSpec) *RunResult {
	n := len(e.Workload.Statements)
	res := &RunResult{
		Name:        spec.Algo.Name(),
		TotWork:     make([]float64, n+1),
		Ratio:       make([]float64, n+1),
		StmtAnalyze: make([]time.Duration, n),
	}
	res.Ratio[0] = 1

	retireAfter := spec.RetireIdleAfter
	if retireAfter == 0 {
		retireAfter = defaultRetireIdleAfter
	}

	mat := index.EmptySet
	lastUsed := make(map[index.ID]int)
	total := 0.0
	var memBefore, memAfter runtime.MemStats
	if spec.TrackAllocs {
		res.StmtAllocs = make([]uint64, n)
		res.StmtAllocBytes = make([]uint64, n)
	}
	for i1, s := range e.Workload.Statements {
		i := i1 + 1
		sc := e.IBGs[i1]
		charge := func(d time.Duration) {
			res.AnalyzeTime += d
			res.StmtAnalyze[i1] += d
		}
		if spec.TrackAllocs {
			runtime.ReadMemStats(&memBefore)
		}

		start := time.Now()
		spec.Algo.Analyze(i, s, sc)
		for _, v := range spec.Votes[i] {
			spec.Algo.Feedback(v.Plus, v.Minus)
		}
		rec := spec.Algo.Recommend()
		charge(time.Since(start))

		accept := spec.AcceptEvery <= 1 || i%spec.AcceptEvery == 0
		if accept {
			if spec.AcceptEvery > 1 {
				// Implicit feedback from the DBA's action: positive
				// votes for the accepted set (lease renewal), negative
				// votes for what the acceptance drops.
				dropped := mat.Minus(rec)
				start = time.Now()
				spec.Algo.Feedback(rec, dropped)
				charge(time.Since(start))
			}
			if !rec.Equal(mat) {
				total += e.Reg.Delta(mat, rec)
				res.TransitionCost += e.Reg.Delta(mat, rec)
				res.Changes++
				rec.Minus(mat).Each(func(id index.ID) {
					lastUsed[id] = i
				})
				mat = rec
			}

			// Out-of-band storage hygiene: the DBA drops indices no
			// plan has used for a while; the tuner observes the drop
			// as an implicit negative vote.
			if retireAfter > 0 {
				var idle []index.ID
				mat.Each(func(id index.ID) {
					if i-lastUsed[id] >= retireAfter {
						idle = append(idle, id)
					}
				})
				if len(idle) > 0 {
					retired := index.NewSet(idle...)
					d := e.Reg.Delta(mat, mat.Minus(retired))
					total += d
					res.TransitionCost += d
					res.Changes++
					mat = mat.Minus(retired)
					start = time.Now()
					spec.Algo.Feedback(index.EmptySet, retired)
					charge(time.Since(start))
				}
			}
		}
		spec.Algo.SetMaterialized(mat)
		if spec.TrackAllocs {
			// Mallocs/TotalAlloc are monotonic, so the deltas survive
			// any GC that runs mid-statement. The snapshots bracket the
			// algorithm interactions and the harness bookkeeping between
			// them — the true-cost pricing below is the simulated DBMS
			// and stays outside the window.
			runtime.ReadMemStats(&memAfter)
			res.StmtAllocs[i1] = memAfter.Mallocs - memBefore.Mallocs
			res.StmtAllocBytes[i1] = memAfter.TotalAlloc - memBefore.TotalAlloc
		}

		// Price the adopted configuration with the true model and track
		// which materialized indices the plan actually used (feeding the
		// retirement policy).
		c, used := e.Model.CostUsed(s, mat)
		used.Each(func(id index.ID) {
			lastUsed[id] = i
		})
		total += c
		res.TotWork[i] = total
		res.Ratio[i] = e.Opt.PrefixTotal[i] / total
	}
	res.FinalConfig = mat
	return res
}

// RunAll evaluates the given runs concurrently, one goroutine per run,
// and returns results in spec order. Runs only share read-only
// environment state — nothing writes the per-statement IBGs after their
// builds, the cost model is stateless, the registry is
// fully populated at construction (internUpdateCandidates), and every
// algorithm instance is private to its spec — so concurrent results are
// identical to sequential ones. Per-run AnalyzeTime is wall time and
// inflates under CPU contention; use sequential Run calls when timing is
// the measurement.
func (e *Env) RunAll(specs ...RunSpec) []*RunResult {
	out := make([]*RunResult, len(specs))
	par.Do(e.Options.Workers, len(specs), func(i int) {
		out[i] = e.Run(specs[i])
	})
	return out
}
