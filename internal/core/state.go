package core

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/interaction"
	"repro/internal/whatif"
)

// WFAState is the exportable state of one per-part work function: the part
// members, the normalized work-function table with its accumulated offset,
// and the current recommendation mask. The create/drop cost vectors and
// every scratch buffer are derived from the registry and the part on
// restore.
type WFAState struct {
	Cand    []index.ID
	W       []float64
	Base    float64
	CurrRec uint32
}

// TunerState is the full exportable state of a WFIT instance. Together
// with the index registry (serialized separately — see internal/state) it
// determines the tuner's future behavior exactly: a restored instance fed
// the same statement and feedback stream produces bit-identical work
// functions, statistics, partitions, and recommendations.
type TunerState struct {
	Options Options // InitialMaterialized carried as S0 below

	N            int
	Repartitions int
	Retired      int

	// Pinned carries the active F+ vote pins in ascending ID order.
	Pinned []PinnedVote

	S0           index.Set
	Materialized index.Set
	Universe     index.Set

	// Partition is the stable partition in Normalize form; Parts carries
	// the per-part work functions in WFA+ part order (WFAPlus.Parts), which
	// can differ from partition order after a Feedback-driven extension
	// and matters to the floating-point summation order of the next
	// repartition.
	Partition interaction.Partition
	Parts     []WFAState

	IdxStats interaction.BenefitStatsState
	IntStats interaction.InteractionStatsState

	// RandState is the partitioner's position in its random stream.
	RandState uint64
}

// Kind is WFIT's engine kind: its key in the tuner registry and the kind
// tag of its snapshot payload.
const Kind = "wfit"

// TunerKind tags the state with its engine kind for the snapshot
// codec's kind-dispatched payload (state.TunerState).
func (t *TunerState) TunerKind() string { return Kind }

// TunerOptions returns the options the exporting tuner ran with, so a
// recovering session can rebuild its configuration from the snapshot.
func (t *TunerState) TunerOptions() Options { return t.Options }

// ExportState captures the tuner's complete state. The snapshot shares no
// mutable structure with the tuner except the exported statistics windows
// (see Window.Export); callers must serialize it before analyzing further
// statements.
func (t *WFIT) ExportState() *TunerState {
	st := &TunerState{
		Options:      t.options,
		N:            t.n,
		Repartitions: t.repartitions,
		Retired:      t.retired,
		Pinned:       t.pinned.Export(),
		S0:           t.s0,
		Materialized: t.materialized,
		Universe:     t.universe,
		Partition:    t.Partition(),
		IdxStats:     t.idxStats.Export(),
		IntStats:     t.intStats.Export(),
		RandState:    t.rng.State(),
	}
	for _, a := range t.plus.Parts() {
		st.Parts = append(st.Parts, WFAState{
			Cand:    a.cand,
			W:       a.w,
			Base:    a.base,
			CurrRec: a.currRec,
		})
	}
	return st
}

// RestoreWFIT rebuilds a tuner from an exported state against a what-if
// optimizer whose registry already holds every index the state references
// (restore the registry first — see internal/state). The restored instance
// continues the interrupted one bit-identically.
func RestoreWFIT(opt *whatif.Optimizer, st *TunerState) (*WFIT, error) {
	if st.Options.MaxPartSize > MaxPartBits {
		return nil, fmt.Errorf("core: tuner state caps parts at %d indices, more than MaxPartBits=%d", st.Options.MaxPartSize, MaxPartBits)
	}
	if h := st.Options.HistSize; st.IdxStats.Hist != h || st.IntStats.Hist != h {
		return nil, fmt.Errorf("core: tuner state keeps %d-entry benefit and %d-entry interaction histories under HistSize %d",
			st.IdxStats.Hist, st.IntStats.Hist, h)
	}
	options := st.Options
	options.InitialMaterialized = st.S0
	t := newWFITBase(opt, options)
	t.n = st.N
	t.repartitions = st.Repartitions
	t.retired = st.Retired
	t.materialized = st.Materialized
	t.universe = st.Universe
	t.partsetC = st.Partition.Union()
	t.rng.SetState(st.RandState)

	reg := opt.Model().Registry()
	for _, ids := range [][]index.ID{t.s0.IDs(), t.materialized.IDs(), t.universe.IDs(), t.partsetC.IDs()} {
		if err := reg.CheckIDs(ids...); err != nil {
			return nil, fmt.Errorf("core: tuner state references %w", err)
		}
	}
	var err error
	if t.pinned, err = RestoreVotes(reg, st.Pinned); err != nil {
		return nil, err
	}

	// The partition must be in Normalize form, as AnalyzeQuery compares
	// it with EqualNormalized, and carry exactly one work function per
	// part, in any order: CompactRegistry keeps only partition members.
	if !st.Partition.Validate() || !st.Partition.EqualNormalized(st.Partition.Normalize()) {
		return nil, fmt.Errorf("core: tuner state partition is not a normalized partition")
	}
	t.plus = &WFAPlus{partition: st.Partition}
	covered := make(interaction.Partition, 0, len(st.Parts))
	for i, ps := range st.Parts {
		part := index.NewSet(ps.Cand...)
		if part.Len() != len(ps.Cand) {
			return nil, fmt.Errorf("core: part %d has duplicate members", i)
		}
		if err := reg.CheckIDs(ps.Cand...); err != nil {
			return nil, fmt.Errorf("core: part %d references %w", i, err)
		}
		if len(ps.Cand) > MaxPartBits {
			return nil, fmt.Errorf("core: part %d has %d candidates, more than MaxPartBits=%d", i, len(ps.Cand), MaxPartBits)
		}
		if len(ps.W) != 1<<len(ps.Cand) {
			return nil, fmt.Errorf("core: part %d has %d work entries for %d candidates", i, len(ps.W), len(ps.Cand))
		}
		if ps.CurrRec>>len(ps.Cand) != 0 {
			return nil, fmt.Errorf("core: part %d recommends bits beyond its %d candidates", i, len(ps.Cand))
		}
		a := newWFAShell(reg, part)
		copy(a.w, ps.W)
		a.base = ps.Base
		a.currRec = ps.CurrRec
		t.plus.parts = append(t.plus.parts, a)
		covered = append(covered, part)
	}
	if len(covered) != len(st.Partition) || !covered.Normalize().EqualNormalized(st.Partition) {
		return nil, fmt.Errorf("core: part work functions do not match the partition's parts")
	}

	if t.idxStats, err = interaction.RestoreBenefitStats(st.IdxStats, reg, st.N); err != nil {
		return nil, err
	}
	if t.intStats, err = interaction.RestoreInteractionStats(st.IntStats, reg, st.N); err != nil {
		return nil, err
	}
	return t, nil
}
