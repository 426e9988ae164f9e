package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/tuner"
	"repro/internal/workload"

	// The gauntlet races every registered engine; linking the bandit here
	// keeps wfitbench's engine set identical to the serving daemon's.
	_ "repro/internal/tuner/bandit"
)

// gauntletDefaultScenario names the benchmark-default workload (the
// paper's 8-phase rotation, Options.Profile == "") in the gauntlet
// matrix, where the empty string would read as a missing cell.
const gauntletDefaultScenario = "phased"

// GauntletScenarios lists the scenario matrix's workload axis: the
// benchmark default plus every named workload profile.
func GauntletScenarios() []string {
	out := make([]string, 0, len(workload.Profiles()))
	for _, p := range workload.Profiles() {
		if p == "" {
			p = gauntletDefaultScenario
		}
		out = append(out, p)
	}
	return out
}

// GauntletCell is one (engine × scenario) evaluation.
type GauntletCell struct {
	Engine   string `json:"engine"`
	Scenario string `json:"scenario"`
	// TotalWork is the engine's cumulative total work over the scenario;
	// OptTotalWork is the offline optimum's, and FinalRatio their
	// OPT-normalized quotient (1.0 = optimal).
	TotalWork    float64 `json:"total_work"`
	OptTotalWork float64 `json:"opt_total_work"`
	FinalRatio   float64 `json:"opt_normalized_final_ratio"`
	// Changes counts materialized-set changes over the run.
	Changes int `json:"changes"`
	// TrajectoryDigest fingerprints the full total-work trajectory
	// (FNV-1a over the raw float64 bits): equal digests mean bit-identical
	// tuning behavior, which is what CI's gauntlet smoke compares against
	// the committed baseline.
	TrajectoryDigest string `json:"trajectory_digest"`
}

// GauntletReport is the engine × scenario matrix, the "gauntlet" section
// of BENCH_wfit.json.
type GauntletReport struct {
	Engines   []string       `json:"engines"`
	Scenarios []string       `json:"scenarios"`
	Cells     []GauntletCell `json:"cells"`
}

// Cell returns the (engine, scenario) cell, nil when absent.
func (g *GauntletReport) Cell(engine, scenario string) *GauntletCell {
	for i := range g.Cells {
		if g.Cells[i].Engine == engine && g.Cells[i].Scenario == scenario {
			return &g.Cells[i]
		}
	}
	return nil
}

// RunGauntlet evaluates every registered tuner engine over every
// scenario, reporting OPT-normalized total work per cell. base sizes the
// per-scenario environments (workload shape, candidate budget); each
// scenario rebuilds the environment with its profile so the OPT baseline
// is computed per scenario.
func RunGauntlet(base Options) *GauntletReport {
	rep := &GauntletReport{Engines: tuner.Kinds(), Scenarios: GauntletScenarios()}
	for _, scenario := range rep.Scenarios {
		o := base
		if scenario == gauntletDefaultScenario {
			o.Workload.Profile = ""
		} else {
			o.Workload.Profile = scenario
		}
		env := NewEnv(o)
		n := env.Workload.Len()
		for _, kind := range rep.Engines {
			options := core.DefaultOptions()
			options.IdxCnt = env.Options.IdxCnt
			options.StateCnt = env.middle()
			algo, err := env.NewEngineAlgo(kind, kind, options)
			if err != nil {
				panic("bench: gauntlet engine vanished mid-run: " + err.Error())
			}
			run := env.Run(RunSpec{Algo: algo})
			rep.Cells = append(rep.Cells, GauntletCell{
				Engine:           kind,
				Scenario:         scenario,
				TotalWork:        run.TotWork[n],
				OptTotalWork:     env.Opt.PrefixTotal[n],
				FinalRatio:       run.Ratio[n],
				Changes:          run.Changes,
				TrajectoryDigest: trajectoryDigest(run.TotWork),
			})
		}
	}
	return rep
}

// trajectoryDigest fingerprints a total-work trajectory bit-exactly:
// FNV-1a over each element's IEEE-754 representation.
func trajectoryDigest(totWork []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range totWork {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:]) //nolint:errcheck // fnv never fails
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
