package bench

import "testing"

// TestRunAllIdenticalToSequentialRuns checks the harness layer: evaluating
// algorithms concurrently over the shared environment yields exactly the
// trajectories sequential evaluation produces. Construction itself runs
// with the parallel default, so under -race it also exercises the
// concurrent construction paths.
func TestRunAllIdenticalToSequentialRuns(t *testing.T) {
	env := NewEnv(SmallOptions())
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
