package bench

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/whatif"
)

var (
	detEnvOnce sync.Once
	detEnv     *Env
)

// determinismEnv shares one small environment across the determinism
// tests (construction itself runs with the parallel default, so building
// it under -race also exercises the concurrent construction paths).
func determinismEnv(t *testing.T) *Env {
	t.Helper()
	detEnvOnce.Do(func() { detEnv = NewEnv(SmallOptions()) })
	return detEnv
}

// TestWFITParallelIdenticalToSerial drives two full WFIT tuners — one
// pinned to the serial path, one fanned across 8 workers — over the same
// workload and requires identical observable state after every statement:
// same recommendation, same IBG size (= what-if budget), and at the end
// the same candidate universe and repartition count. A WFIT analysis fans
// out only inside the IBG, on wide construction waves and on the
// statistics of graphs too wide for exact enumeration; several of this
// workload's statements reach both, and the pooled results must be
// bit-identical, not just statistically close.
func TestWFITParallelIdenticalToSerial(t *testing.T) {
	env := determinismEnv(t)
	mk := func(workers int) *core.WFIT {
		options := core.DefaultOptions()
		options.IdxCnt = env.Options.IdxCnt
		options.StateCnt = env.middle()
		options.Workers = workers
		return core.NewWFIT(whatif.New(env.Model), options)
	}
	serial, parallel := mk(1), mk(8)
	for i, s := range env.Workload.Statements {
		serial.AnalyzeQuery(s)
		parallel.AnalyzeQuery(s)
		if !serial.Recommend().Equal(parallel.Recommend()) {
			t.Fatalf("statement %d: recommendations diverge: %v vs %v",
				i+1, serial.Recommend(), parallel.Recommend())
		}
		if serial.LastIBGNodes() != parallel.LastIBGNodes() {
			t.Fatalf("statement %d: IBG sizes diverge: %d vs %d",
				i+1, serial.LastIBGNodes(), parallel.LastIBGNodes())
		}
	}
	if serial.UniverseSize() != parallel.UniverseSize() {
		t.Fatalf("universe sizes diverge: %d vs %d", serial.UniverseSize(), parallel.UniverseSize())
	}
	if serial.Repartitions() != parallel.Repartitions() {
		t.Fatalf("repartition counts diverge: %d vs %d", serial.Repartitions(), parallel.Repartitions())
	}
}

// TestRunAllIdenticalToSequentialRuns checks the harness layer: evaluating
// algorithms concurrently over the shared environment yields exactly the
// trajectories sequential evaluation produces.
func TestRunAllIdenticalToSequentialRuns(t *testing.T) {
	env := determinismEnv(t)
	specs := func() []RunSpec {
		return []RunSpec{
			{Algo: env.NewWFITFixedAlgo("WFIT", env.Partitions[env.middle()])},
			{Algo: env.NewWFITIndAlgo("IND")},
			{Algo: env.NewBCAlgo("BC")},
		}
	}
	var sequential []*RunResult
	for _, spec := range specs() {
		sequential = append(sequential, env.Run(spec))
	}
	concurrent := env.RunAll(specs()...)
	for k := range sequential {
		s, c := sequential[k], concurrent[k]
		if s.Name != c.Name || s.Changes != c.Changes || !s.FinalConfig.Equal(c.FinalConfig) {
			t.Fatalf("run %s: outcomes diverge", s.Name)
		}
		for i := range s.TotWork {
			if s.TotWork[i] != c.TotWork[i] {
				t.Fatalf("run %s: total work diverges at statement %d: %v vs %v",
					s.Name, i, s.TotWork[i], c.TotWork[i])
			}
		}
	}
}
