package bench

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

var (
	smallOnce sync.Once
	smallEnv  *Env
)

// sharedSmallEnv lazily builds one small environment for all tests.
func sharedSmallEnv(t testing.TB) *Env {
	t.Helper()
	smallOnce.Do(func() {
		smallEnv = NewEnv(SmallOptions())
	})
	return smallEnv
}

func TestEnvConstruction(t *testing.T) {
	env := sharedSmallEnv(t)
	if env.FixedC.Empty() {
		t.Fatalf("no fixed candidates selected")
	}
	if env.FixedC.Len() > env.Options.IdxCnt {
		t.Fatalf("C = %d exceeds idxCnt %d", env.FixedC.Len(), env.Options.IdxCnt)
	}
	if !env.FixedC.SubsetOf(env.Universe) {
		t.Fatalf("C not within the mined universe")
	}
	for _, sc := range env.Options.StateCnts {
		p, ok := env.Partitions[sc]
		if !ok {
			t.Fatalf("missing partition for stateCnt %d", sc)
		}
		if !p.Validate() {
			t.Fatalf("invalid partition for stateCnt %d", sc)
		}
		if !p.Union().Equal(env.FixedC) {
			t.Fatalf("partition %d does not cover C", sc)
		}
		if p.States() > sc {
			t.Fatalf("partition %d uses %d states", sc, p.States())
		}
	}
	if len(env.IBGs) != env.Workload.Len() {
		t.Fatalf("IBG count mismatch")
	}
}

func TestOptPrefixInvariants(t *testing.T) {
	env := sharedSmallEnv(t)
	n := env.Workload.Len()
	if len(env.Opt.PrefixTotal) != n+1 || len(env.Opt.Schedule) != n+1 {
		t.Fatalf("OPT result sizes wrong")
	}
	for i := 1; i <= n; i++ {
		if env.Opt.PrefixTotal[i] < env.Opt.PrefixTotal[i-1] {
			t.Fatalf("OPT prefix decreased at %d", i)
		}
		if !env.Opt.Schedule[i].SubsetOf(env.FixedC) {
			t.Fatalf("OPT schedule leaves the candidate set at %d", i)
		}
	}
	// The replayed schedule can never beat the DP optimum.
	if env.OptReplay[n] < env.Opt.PrefixTotal[n]-1e-6*env.Opt.PrefixTotal[n] {
		t.Fatalf("replay %v beats DP optimum %v", env.OptReplay[n], env.Opt.PrefixTotal[n])
	}
}

func TestRunInvariants(t *testing.T) {
	env := sharedSmallEnv(t)
	run := env.Run(RunSpec{Algo: env.NewWFITFixedAlgo("WFIT", env.Partitions[env.middle()])})
	n := env.Workload.Len()
	if len(run.TotWork) != n+1 {
		t.Fatalf("TotWork length wrong")
	}
	for i := 1; i <= n; i++ {
		if run.TotWork[i] <= run.TotWork[i-1] {
			t.Fatalf("total work not strictly increasing at %d", i)
		}
		if run.Ratio[i] <= 0 || run.Ratio[i] > 1.25 {
			t.Fatalf("ratio %v out of plausible range at %d", run.Ratio[i], i)
		}
	}
	if run.Changes == 0 {
		t.Fatalf("tuner never changed the configuration on a phased workload")
	}
	if run.TransitionCost <= 0 {
		t.Fatalf("no transition cost despite changes")
	}
}

func TestRunDeterminism(t *testing.T) {
	env := sharedSmallEnv(t)
	r1 := env.Run(RunSpec{Algo: env.NewWFITFixedAlgo("WFIT", env.Partitions[env.middle()])})
	r2 := env.Run(RunSpec{Algo: env.NewWFITFixedAlgo("WFIT", env.Partitions[env.middle()])})
	n := env.Workload.Len()
	if r1.TotWork[n] != r2.TotWork[n] || r1.Changes != r2.Changes {
		t.Fatalf("identical runs diverged: %v vs %v", r1.TotWork[n], r2.TotWork[n])
	}
}

// TestFixedCandidateTrajectoriesPinned pins Figs. 8, 9 and 11 bit for
// bit on the small environment: every run's total-work trajectory must
// hash to its recorded digest. The gauntlet digests cover engine runs
// only; these cover the fixed-candidate WFA+ runs (and Fig. 8's BC).
func TestFixedCandidateTrajectoriesPinned(t *testing.T) {
	env := NewEnv(SmallOptions())
	figs := []struct {
		fig  string
		runs []*RunResult
		want map[string]string // run name -> trajectoryDigest(TotWork)
	}{
		{"8", env.RunFig8(), map[string]string{
			"WFIT-500": "1d75848e5493614b",
			"WFIT-100": "1d75848e5493614b",
			"WFIT-IND": "56cad9aa779c8755",
			"BC":       "d90d2ddc1b95330d",
		}},
		{"9", env.RunFig9(), map[string]string{
			"GOOD": "79579cadb5c4cede",
			"WFIT": "1d75848e5493614b",
			"BAD":  "44116e6162bc852c",
		}},
		{"11", env.RunFig11(), map[string]string{
			"WFIT":   "1d75848e5493614b",
			"LAG 25": "51d96d5f3b1840f5",
			"LAG 50": "5edde631d643d76b",
			"LAG 75": "f10d8785ae04d261",
		}},
	}
	for _, f := range figs {
		if len(f.runs) != len(f.want) {
			t.Errorf("fig %s: %d runs, want %d", f.fig, len(f.runs), len(f.want))
		}
		for _, r := range f.runs {
			if got := trajectoryDigest(r.TotWork); got != f.want[r.Name] {
				t.Errorf("fig %s run %q: digest %s, want %s (total work %v)",
					f.fig, r.Name, got, f.want[r.Name], r.TotWork[len(r.TotWork)-1])
			}
		}
	}
}

func TestGoodFeedbackBeatsNone(t *testing.T) {
	env := sharedSmallEnv(t)
	runs := env.RunFig9()
	n := env.Workload.Len()
	good, plain := runs[0], runs[1]
	if good.TotWork[n] > plain.TotWork[n]*1.001 {
		t.Fatalf("prescient feedback made things worse: %v vs %v",
			good.TotWork[n], plain.TotWork[n])
	}
}

func TestBadFeedbackRecovers(t *testing.T) {
	env := sharedSmallEnv(t)
	runs := env.RunFig9()
	n := env.Workload.Len()
	bad := runs[2]
	// Recovery: despite adversarial votes, the final ratio stays within
	// a reasonable band of the no-feedback run.
	plain := runs[1]
	if bad.Ratio[n] < plain.Ratio[n]*0.5 {
		t.Fatalf("no recovery from bad feedback: %v vs %v", bad.Ratio[n], plain.Ratio[n])
	}
}

// TestGoodFeedbackUnderIndependence checks Figure 10: WFIT-IND's
// singleton partition hides index interactions from its statistics, and
// prescient votes must make up for it.
func TestGoodFeedbackUnderIndependence(t *testing.T) {
	env := sharedSmallEnv(t)
	runs := env.RunFig10()
	n := env.Workload.Len()
	good, plain := runs[0], runs[1]
	if good.TotWork[n] >= plain.TotWork[n] {
		t.Fatalf("GOOD-IND total work %.6g not below WFIT-IND %.6g (ratios %.3f vs %.3f)",
			good.TotWork[n], plain.TotWork[n], good.Ratio[n], plain.Ratio[n])
	}
}

// TestAutoMaintenanceKeepsUp checks Figure 12: full WFIT, mining its own
// candidates and repartitioning online, stays close to the variant that
// is handed the offline candidate set and stable partition.
func TestAutoMaintenanceKeepsUp(t *testing.T) {
	env := sharedSmallEnv(t)
	res := env.RunFig12()
	n := env.Workload.Len()
	auto, fixed := res.Runs[0], res.Runs[1]
	if auto.Ratio[n] < 0.9*fixed.Ratio[n] {
		t.Errorf("AUTO final ratio %.3f below 0.9 × FIXED's %.3f", auto.Ratio[n], fixed.Ratio[n])
	}
	if res.Repartitions < 1 {
		t.Errorf("AUTO never repartitioned")
	}
	if res.CandidateCnt <= env.Options.IdxCnt {
		t.Errorf("AUTO mined %d candidates, want more than idxCnt %d", res.CandidateCnt, env.Options.IdxCnt)
	}
}

func TestLagReducesChanges(t *testing.T) {
	env := sharedSmallEnv(t)
	part := env.Partitions[env.middle()]
	immediate := env.Run(RunSpec{Algo: env.NewWFITFixedAlgo("T1", part)})
	lagged := env.Run(RunSpec{Algo: env.NewWFITFixedAlgo("T25", part), AcceptEvery: 25})
	if lagged.Changes > immediate.Changes {
		t.Fatalf("lagged DBA changed more often: %d vs %d", lagged.Changes, immediate.Changes)
	}
	n := env.Workload.Len()
	if lagged.TotWork[n] < immediate.TotWork[n]*0.999 {
		t.Fatalf("lag should not improve total work")
	}
}

func TestVotesForceConsistentRecommendations(t *testing.T) {
	env := sharedSmallEnv(t)
	algo := env.NewWFITFixedAlgo("WFIT", env.Partitions[env.middle()])
	votes := workload.ScheduleVotes(env.Opt.Schedule)
	at := workload.VotesAt(votes)
	for i1, s := range env.Workload.Statements {
		i := i1 + 1
		algo.Analyze(i, s, env.IBGs[i1])
		for _, v := range at[i] {
			algo.Feedback(v.Plus, v.Minus)
			rec := algo.Recommend()
			if !v.Plus.SubsetOf(rec) {
				t.Fatalf("stmt %d: positive votes %v not in recommendation", i, v.Plus)
			}
			if !rec.Disjoint(v.Minus) {
				t.Fatalf("stmt %d: negative votes %v still recommended", i, v.Minus)
			}
		}
	}
}

func TestOverheadReport(t *testing.T) {
	env := sharedSmallEnv(t)
	r := env.RunPerf()
	o := r.Analysis
	if r.Statements != env.Workload.Len() {
		t.Fatalf("statement count wrong")
	}
	if o.WhatIfCalls <= 0 {
		t.Fatalf("no what-if calls recorded")
	}
	if o.WhatIfPerStmt.Mean <= 0 || o.WhatIfPerStmt.Max < o.WhatIfPerStmt.Min {
		t.Fatalf("nonsensical overhead stats: %+v", o.WhatIfPerStmt)
	}
}

func TestNewOverhead(t *testing.T) {
	o := NewOverhead([]int{5, 1, 9, 3, 7})
	if o.Min != 1 || o.Max != 9 || o.Mean != 5 {
		t.Fatalf("overhead stats wrong: %+v", o)
	}
	if NewOverhead(nil) != (Overhead{}) {
		t.Fatalf("empty overhead not zero")
	}
}

// TestShapesMedium checks the qualitative Figure-8 ordering on a medium
// environment: WFIT must beat both the independence variant and BC.
func TestShapesMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium environment takes ~15s")
	}
	opts := SmallOptions()
	opts.Workload.Phases = 4
	opts.Workload.PerPhase = 100
	opts.IdxCnt = 24
	opts.StateCnts = []int{1000, 200}
	env := NewEnv(opts)
	n := env.Workload.Len()

	wfit := env.Run(RunSpec{Algo: env.NewWFITFixedAlgo("WFIT", env.Partitions[1000])})
	ind := env.Run(RunSpec{Algo: env.NewWFITIndAlgo("WFIT-IND")})
	bc := env.Run(RunSpec{Algo: env.NewBCAlgo("BC")})

	if wfit.Ratio[n] < 0.6 {
		t.Errorf("WFIT ratio %v unexpectedly low", wfit.Ratio[n])
	}
	if wfit.Ratio[n] < ind.Ratio[n] {
		t.Errorf("WFIT (%v) below WFIT-IND (%v)", wfit.Ratio[n], ind.Ratio[n])
	}
	if wfit.Ratio[n] < bc.Ratio[n] {
		t.Errorf("WFIT (%v) below BC (%v)", wfit.Ratio[n], bc.Ratio[n])
	}
}
