package core

import (
	"fmt"
	"sort"

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

// PinnedVote records one active F+ pin: the index and the statement
// position of the vote that created it (see WFIT.pinned).
type PinnedVote struct {
	ID  index.ID
	Pos int
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

// TunerKind tags the state with its engine kind for the snapshot
// codec's kind-dispatched payload (state.TunerState).
func (t *TunerState) TunerKind() string { return "wfit" }

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
		S0:           t.s0,
		Materialized: t.materialized,
		Universe:     t.universe,
		Partition:    t.Partition(),
		IdxStats:     t.idxStats.Export(),
		IntStats:     t.intStats.Export(),
		RandState:    t.rng.State(),
	}
	for id, pos := range t.pinned {
		st.Pinned = append(st.Pinned, PinnedVote{ID: id, Pos: pos})
	}
	sort.Slice(st.Pinned, func(i, j int) bool { return st.Pinned[i].ID < st.Pinned[j].ID })
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
	options := st.Options
	options.InitialMaterialized = st.S0
	t := newWFITBase(opt, options)
	t.n = st.N
	t.repartitions = st.Repartitions
	t.retired = st.Retired
	for _, p := range st.Pinned {
		t.pinned[p.ID] = p.Pos
	}
	t.materialized = st.Materialized
	t.universe = st.Universe
	t.partsetC = st.Partition.Union()
	t.rng.SetState(st.RandState)

	reg := opt.Model().Registry()
	regLen := reg.Len()
	check := func(s index.Set) error {
		if !s.Empty() && int(s.IDs()[s.Len()-1]) > regLen {
			return fmt.Errorf("core: tuner state references index ID %d beyond registry size %d", s.IDs()[s.Len()-1], regLen)
		}
		return nil
	}
	if err := check(t.universe); err != nil {
		return nil, err
	}
	if err := check(t.partsetC); err != nil {
		return nil, err
	}
	for _, p := range st.Pinned {
		if int(p.ID) > regLen {
			return nil, fmt.Errorf("core: tuner state pins index ID %d beyond registry size %d", p.ID, regLen)
		}
	}

	// The partition must be in Normalize form, as finishAnalysis compares
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
		if err := check(part); err != nil {
			return nil, err
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

	// The histories must name registry indices and end at or before the
	// restored statement count: the next statement appends at N+1.
	checkHistory := func(what string, w interaction.WindowState, ids ...index.ID) error {
		for _, id := range ids {
			if id == index.Invalid || int(id) > regLen {
				return fmt.Errorf("core: %s history for index ID %d outside registry size %d", what, id, regLen)
			}
		}
		if k := len(w.Pos); k > 0 && w.Pos[k-1] > st.N {
			return fmt.Errorf("core: %s history position %d beyond statement count %d", what, w.Pos[k-1], st.N)
		}
		return nil
	}
	for _, e := range st.IdxStats.Entries {
		if err := checkHistory("benefit", e.Window, e.ID); err != nil {
			return nil, err
		}
	}
	for _, e := range st.IntStats.Entries {
		if e.A >= e.B {
			return nil, fmt.Errorf("core: interaction history for unordered pair (%d, %d)", e.A, e.B)
		}
		if err := checkHistory("interaction", e.Window, e.A, e.B); err != nil {
			return nil, err
		}
	}

	var err error
	if t.idxStats, err = interaction.RestoreBenefitStats(st.IdxStats); err != nil {
		return nil, err
	}
	if t.intStats, err = interaction.RestoreInteractionStats(st.IntStats); err != nil {
		return nil, err
	}
	return t, nil
}
