package interaction

import (
	"fmt"

	"repro/internal/index"
)

// Rand is a serializable pseudo-random source (splitmix64) satisfying the
// Partitioner's rngSource interface. WFIT uses it instead of *rand.Rand so
// a snapshot can capture the partitioner's exact position in the random
// stream: a restored tuner then makes the same randomized repartition
// choices as the uninterrupted one, which the bit-identical recovery
// guarantee of the service layer depends on. The state is one word.
type Rand struct {
	state uint64
}

// NewRand seeds a Rand. Distinct seeds give unrelated streams.
func NewRand(seed int64) *Rand {
	// Pre-mix the seed once so small consecutive seeds (the common
	// Options.Seed values 1, 2, 3, …) don't start in nearby states.
	r := &Rand{state: uint64(seed)}
	r.next()
	return r
}

// next advances the splitmix64 state and returns the output word.
func (r *Rand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// State exposes the generator state for snapshots.
func (r *Rand) State() uint64 { return r.state }

// SetState restores a previously captured state.
func (r *Rand) SetState(s uint64) { r.state = s }

// WindowState is the exportable form of a Window.
type WindowState struct {
	Cap     int
	Dropped int
	Pos     []int
	Vals    []float64
}

// Export captures the window's full state. The returned slices alias the
// window's internals; callers serialize them before the window changes.
func (w *Window) Export() WindowState {
	return WindowState{Cap: w.cap, Dropped: w.dropped, Pos: w.pos, Vals: w.vals}
}

// RestoreWindow rebuilds a window from an exported state. It rejects
// histories no live window holds: positions that decrease, values that
// are not finite and positive, or more entries than a positive cap.
func RestoreWindow(st WindowState) (*Window, error) {
	if len(st.Pos) != len(st.Vals) {
		return nil, fmt.Errorf("interaction: window state has %d positions but %d values", len(st.Pos), len(st.Vals))
	}
	if st.Cap > 0 && len(st.Pos) > st.Cap {
		return nil, fmt.Errorf("interaction: window state holds %d entries over its cap %d", len(st.Pos), st.Cap)
	}
	for i, v := range st.Vals {
		if !recordable(v) {
			return nil, fmt.Errorf("interaction: window state value %v at entry %d is not finite and positive", v, i)
		}
		if i > 0 && st.Pos[i] < st.Pos[i-1] {
			return nil, fmt.Errorf("interaction: window state positions decrease at entry %d (%d after %d)", i, st.Pos[i], st.Pos[i-1])
		}
	}
	w := NewWindow(st.Cap)
	w.pos = append([]int(nil), st.Pos...)
	w.vals = append([]float64(nil), st.Vals...)
	w.dropped = st.Dropped
	return w, nil
}

// BenefitWindow is one index's history in a BenefitStatsState.
type BenefitWindow struct {
	ID     index.ID
	Window WindowState
}

// BenefitStatsState is the exportable form of BenefitStats.
type BenefitStatsState struct {
	Hist    int
	Entries []BenefitWindow // ascending by ID
}

// Export captures the statistics in deterministic (ID) order. The
// per-window summaries are derived state and are not exported.
func (s *BenefitStats) Export() BenefitStatsState {
	st := BenefitStatsState{Hist: s.hist}
	for id, e := range s.entries {
		if e.w != nil {
			st.Entries = append(st.Entries, BenefitWindow{ID: index.ID(id), Window: e.w.Export()})
		}
	}
	return st
}

// restoreHistory rebuilds one exported history of statistics with
// histories of hist entries, restored after n statements. It refuses a
// history for an index outside reg, which would size the ID-indexed
// statistics by the ID instead of the registry, one that ends after n,
// which the next statement, appending at n+1, would panic on, and one
// whose cap is not hist, which no live window has (the statistics create
// every window as NewWindow(hist)): a history restored with cap 0 would
// grow without bound.
func restoreHistory(reg *index.Registry, n, hist int, what string, st WindowState, ids ...index.ID) (*Window, error) {
	if err := reg.CheckIDs(ids...); err != nil {
		return nil, fmt.Errorf("interaction: %s history for %w", what, err)
	}
	if k := len(st.Pos); k > 0 && st.Pos[k-1] > n {
		return nil, fmt.Errorf("interaction: %s history position %d beyond statement count %d", what, st.Pos[k-1], n)
	}
	w, err := RestoreWindow(st)
	if err != nil {
		return nil, err
	}
	if st.Cap != hist {
		return nil, fmt.Errorf("interaction: %s history capped at %d entries in statistics of %d-entry histories", what, st.Cap, hist)
	}
	return w, nil
}

// RestoreBenefitStats rebuilds benefit statistics, and the summary of
// each window, from a state exported after n statements against reg (see
// restoreHistory).
func RestoreBenefitStats(st BenefitStatsState, reg *index.Registry, n int) (*BenefitStats, error) {
	s := NewBenefitStats(st.Hist)
	for _, e := range st.Entries {
		w, err := restoreHistory(reg, n, st.Hist, "benefit", e.Window, e.ID)
		if err != nil {
			return nil, err
		}
		s.put(e.ID, w)
	}
	return s, nil
}

// PairWindow is one pair's history in an InteractionStatsState.
type PairWindow struct {
	A, B   index.ID
	Window WindowState
}

// InteractionStatsState is the exportable form of InteractionStats.
type InteractionStatsState struct {
	Hist    int
	Entries []PairWindow // ascending by (A, B)
}

// Export captures the statistics in deterministic (pair) order.
func (s *InteractionStats) Export() InteractionStatsState {
	st := InteractionStatsState{Hist: s.hist, Entries: make([]PairWindow, 0, s.pairs)}
	for a, ps := range s.adj {
		for _, p := range ps {
			st.Entries = append(st.Entries, PairWindow{A: index.ID(a), B: p.id, Window: p.w.Export()})
		}
	}
	return st
}

// RestoreInteractionStats rebuilds interaction statistics from a state
// exported after n statements against reg (see restoreHistory). It also
// rejects entries that Export cannot produce: a pair whose A is not below
// its B, and pairs out of ascending (A, B) order, which include
// duplicates.
func RestoreInteractionStats(st InteractionStatsState, reg *index.Registry, n int) (*InteractionStats, error) {
	s := NewInteractionStats(st.Hist)
	for i, e := range st.Entries {
		if e.A >= e.B || i > 0 && (e.A < st.Entries[i-1].A || e.A == st.Entries[i-1].A && e.B <= st.Entries[i-1].B) {
			return nil, fmt.Errorf("interaction: pair entry %d (%d, %d) is an unordered pair or out of ascending order", i, e.A, e.B)
		}
		w, err := restoreHistory(reg, n, st.Hist, "interaction", e.Window, e.A, e.B)
		if err != nil {
			return nil, err
		}
		p := Pair{A: e.A, B: e.B}
		k, _ := s.find(p)
		s.insert(p, k, w)
	}
	return s, nil
}
