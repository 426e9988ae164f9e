package bandit

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/interaction"
	"repro/internal/state"
	"repro/internal/tuner"
	"repro/internal/whatif"
)

// State is the bandit engine's full exportable state. Together with the
// index registry (serialized separately) it determines the engine's
// future behavior exactly: a restored instance fed the same statement
// and feedback stream produces bit-identical regressions, super-arms,
// and recommendations.
type State struct {
	Options core.Options // InitialMaterialized carried as S0 below

	N            int
	Retired      int
	Reselections int

	S0           index.Set
	Materialized index.Set
	Universe     index.Set
	Selection    index.Set

	// Pinned and Banned carry the active votes in ascending ID order.
	Pinned []core.PinnedVote
	Banned []core.PinnedVote

	// Gram is the ridge Gram matrix (featDim×featDim, row-major) and
	// Reward the accumulated reward vector.
	Gram   []float64
	Reward []float64

	Stats interaction.BenefitStatsState

	// RandState is the exploration stream position.
	RandState uint64
}

// TunerKind tags the state for the snapshot codec's kind dispatch.
func (s *State) TunerKind() string { return Kind }

// TunerOptions returns the options the exporting engine ran with.
func (s *State) TunerOptions() core.Options { return s.Options }

// ExportState captures the engine's complete state. The snapshot shares
// no mutable structure with the engine except the exported statistics
// windows (see interaction.Window.Export); callers must serialize it
// before analyzing further statements.
func (t *Bandit) ExportState() state.TunerState {
	st := &State{
		Options:      t.options,
		N:            t.n,
		Retired:      t.retired,
		Reselections: t.reselections,
		S0:           t.s0,
		Materialized: t.materialized,
		Universe:     t.universe,
		Selection:    t.selection,
		Pinned:       t.pinned.Export(),
		Banned:       t.banned.Export(),
		Gram:         append([]float64(nil), t.gram...),
		Reward:       append([]float64(nil), t.reward...),
		Stats:        t.stats.Export(),
		RandState:    t.rng.State(),
	}
	return st
}

// Restore rebuilds a bandit engine from an exported state against an
// optimizer whose registry already holds every referenced arm. The
// restored instance continues the interrupted one bit-identically.
func Restore(opt *whatif.Optimizer, st *State) (*Bandit, error) {
	options := st.Options
	options.InitialMaterialized = st.S0
	t := New(opt, options)
	t.n = st.N
	t.retired = st.Retired
	t.reselections = st.Reselections
	t.materialized = st.Materialized
	t.universe = st.Universe
	t.selection = st.Selection
	if st.Stats.Hist != st.Options.HistSize {
		return nil, fmt.Errorf("bandit: state keeps %d-entry benefit histories under HistSize %d", st.Stats.Hist, st.Options.HistSize)
	}
	if len(st.Gram) != featDim*featDim || len(st.Reward) != featDim {
		return nil, fmt.Errorf("bandit: state carries a %d/%d regression, want %d/%d", len(st.Gram), len(st.Reward), featDim*featDim, featDim)
	}
	copy(t.gram, st.Gram)
	copy(t.reward, st.Reward)
	t.rng.SetState(st.RandState)

	for _, ids := range [][]index.ID{t.s0.IDs(), t.materialized.IDs(), t.universe.IDs(), t.selection.IDs()} {
		if err := t.reg.CheckIDs(ids...); err != nil {
			return nil, fmt.Errorf("bandit: state references %w", err)
		}
	}
	var err error
	if t.pinned, err = core.RestoreVotes(t.reg, st.Pinned); err != nil {
		return nil, err
	}
	if t.banned, err = core.RestoreVotes(t.reg, st.Banned); err != nil {
		return nil, err
	}
	if t.stats, err = interaction.RestoreBenefitStats(st.Stats, t.reg, st.N); err != nil {
		return nil, err
	}
	return t, nil
}

// restoreEngine adapts Restore to the factory signature.
func restoreEngine(opt *whatif.Optimizer, st state.TunerState) (tuner.Engine, error) {
	bs, ok := st.(*State)
	if !ok {
		return nil, fmt.Errorf("bandit: restore got %T, want *bandit.State", st)
	}
	return Restore(opt, bs)
}

func init() {
	state.RegisterTunerCodec(state.TunerCodec{
		Kind: Kind,
		Encode: func(e *state.Encoder, st state.TunerState) {
			encodeState(e, st.(*State))
		},
		Decode: func(d *state.Decoder, version int) (state.TunerState, error) {
			return decodeState(d, version), nil
		},
	})
}

// encodeState and decodeState are the bandit payload codec, registered
// under the "bandit" kind tag. Field order is fixed; every float64
// round-trips via its bit pattern.
func encodeState(e *state.Encoder, st *State) {
	e.Options(st.Options)
	e.Int(st.N)
	e.Int(st.Retired)
	e.Int(st.Reselections)
	e.Set(st.S0)
	e.Set(st.Materialized)
	e.Set(st.Universe)
	e.Set(st.Selection)
	encodeVotes(e, st.Pinned)
	encodeVotes(e, st.Banned)
	e.F64s(st.Gram)
	e.F64s(st.Reward)
	e.BenefitStats(st.Stats)
	e.U64(st.RandState)
}

func decodeState(d *state.Decoder, version int) *State {
	st := &State{}
	st.Options = d.Options(version)
	st.N = d.Int()
	st.Retired = d.Int()
	st.Reselections = d.Int()
	st.S0 = d.Set()
	st.Materialized = d.Set()
	st.Universe = d.Set()
	st.Selection = d.Set()
	st.Pinned = decodeVotes(d)
	st.Banned = decodeVotes(d)
	st.Gram = d.F64s()
	st.Reward = d.F64s()
	st.Stats = d.BenefitStats()
	st.RandState = d.U64()
	return st
}

func encodeVotes(e *state.Encoder, votes []core.PinnedVote) {
	e.Len(len(votes))
	for _, v := range votes {
		e.U32(uint32(v.ID))
		e.Int(v.Pos)
	}
}

func decodeVotes(d *state.Decoder) []core.PinnedVote {
	n := d.Len()
	out := make([]core.PinnedVote, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, core.PinnedVote{ID: index.ID(d.U32()), Pos: d.Int()})
	}
	if d.Err() != nil {
		return nil
	}
	return out
}
