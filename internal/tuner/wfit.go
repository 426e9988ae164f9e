package tuner

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/whatif"
)

// KindWFIT is the registry key of the paper's semi-automatic tuner.
// It is the default engine everywhere a kind is configurable.
const KindWFIT = core.Kind

func init() {
	Register(Factory{
		Kind: KindWFIT,
		New: func(opt *whatif.Optimizer, options core.Options) Engine {
			return WFIT{WFIT: core.NewWFIT(opt, options)}
		},
		Restore: func(opt *whatif.Optimizer, st state.TunerState) (Engine, error) {
			ts, ok := st.(*core.TunerState)
			if !ok {
				return nil, fmt.Errorf("tuner: wfit restore got %T, want *core.TunerState", st)
			}
			t, err := core.RestoreWFIT(opt, ts)
			if err != nil {
				return nil, err
			}
			return WFIT{WFIT: t}, nil
		},
	})
}

// WFIT adapts *core.WFIT to the Engine interface. The wrapper exists
// only to align signatures — ExportState returns the concrete
// *core.TunerState — and adds no behavior; with it, every bit-identical
// recovery and differential guarantee proved against core.WFIT
// transfers to the seam unchanged.
type WFIT struct {
	*core.WFIT
	NoSpeculation
}

var _ Engine = WFIT{}

// Kind returns "wfit".
func (WFIT) Kind() string { return KindWFIT }

// Status reports the WFIT gauges: universe, partition shape, statistics
// window counts, and retirement.
func (e WFIT) Status() Status {
	part := e.WFIT.Partition()
	benefit, pairs := e.WFIT.StatsEntries()
	return Status{
		UniverseSize:   e.WFIT.UniverseSize(),
		Repartitions:   e.WFIT.Repartitions(),
		Parts:          len(part),
		States:         part.States(),
		BenefitWindows: benefit,
		PairWindows:    pairs,
		Retired:        e.WFIT.Retired(),
	}
}

// LastAnalysisDurations reports the last statement's stage timings.
func (e WFIT) LastAnalysisDurations() (run, finish time.Duration) {
	return e.WFIT.LastAnalysisDurations()
}

// ExportState captures the full WFIT state (see core.WFIT.ExportState).
func (e WFIT) ExportState() state.TunerState {
	return e.WFIT.ExportState()
}

// Unwrap returns the underlying concrete tuner, for WFIT-specific
// drivers (the soak harness, partition-shape assertions in tests).
func (e WFIT) Unwrap() *core.WFIT { return e.WFIT }
