// Package interaction maintains the workload statistics behind WFIT's
// candidate selection — per-index benefit histories and pairwise degrees
// of interaction — and computes stable partitions of candidate indices,
// including the randomized choosePartition procedure of Figure 7.
package interaction

import (
	"math"
	"sort"

	"repro/internal/index"
)

// Window is a bounded history of positive measurements tagged with the
// workload position where they occurred. Both idxStats and intStats in the
// paper use this shape; the "current" aggregate follows the LRU-K-inspired
// formula of Section 5.2.2:
//
//	current_N = max_ℓ (v1 + … + vℓ) / (N − nℓ + 1)
//
// where entries are ordered from most recent (n1) to oldest (nℓ). Recent
// measurements therefore dominate, but a strong burst in the past can keep
// an index or interaction alive.
type Window struct {
	cap     int
	pos     []int     // ascending workload positions
	vals    []float64 // parallel to pos
	dropped int       // entries expired by the cap
}

// NewWindow creates a history bounded to cap entries (cap <= 0 means
// unbounded, the histSize = ∞ setting).
func NewWindow(cap int) *Window {
	return &Window{cap: cap}
}

// Add appends a measurement at workload position n. Positions must be
// non-decreasing; non-positive values are ignored, matching the paper's
// rule of recording only entries with βn > 0 (or doi > 0), and so are
// non-finite ones: every retained value is finite and positive.
func (w *Window) Add(n int, v float64) {
	if !recordable(v) {
		return
	}
	if len(w.pos) > 0 && n < w.pos[len(w.pos)-1] {
		panic("interaction: Window positions must be non-decreasing")
	}
	w.pos = append(w.pos, n)
	w.vals = append(w.vals, v)
	if w.cap > 0 && len(w.pos) > w.cap {
		over := len(w.pos) - w.cap
		w.pos = append(w.pos[:0], w.pos[over:]...)
		w.vals = append(w.vals[:0], w.vals[over:]...)
		w.dropped += over
	}
}

// recordable reports whether v is finite and positive, the only values a
// Window retains.
func recordable(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Len reports the number of retained entries.
func (w *Window) Len() int { return len(w.pos) }

// Current evaluates the aggregate at workload position N (the number of
// statements seen so far). Empty windows yield 0.
func (w *Window) Current(n int) float64 {
	return w.CurrentPenalized(n, 0)
}

// CurrentPenalized evaluates the aggregate with a one-time cost charged
// against the accumulated value: max_ℓ (v1 + … + vℓ − penalty)/(N−nℓ+1).
// topIndices uses it to demand that a not-yet-monitored index accumulate
// enough recent benefit to pay for its own materialization before it can
// evict a monitored one. The result may be negative; empty windows yield
// −penalty (or 0 when penalty is 0).
func (w *Window) CurrentPenalized(n int, penalty float64) float64 {
	if len(w.pos) == 0 {
		if penalty > 0 {
			return -penalty
		}
		return 0
	}
	best := math.Inf(-1)
	acc := -penalty
	for i := len(w.pos) - 1; i >= 0; i-- {
		acc += w.vals[i]
		if v := acc / denominator(n, w.pos[i]); v > best {
			best = v
		}
	}
	if penalty == 0 && best < 0 {
		// Values are positive, so the unpenalized aggregate cannot be
		// negative; guard only against float oddities.
		best = 0
	}
	return best
}

// denominator is the recency weight N − n + 1 of an entry at position
// pos, at least 1.
func denominator(n, pos int) float64 {
	d := float64(n - pos + 1)
	if d < 1 {
		d = 1
	}
	return d
}

// LastPos returns the workload position of the most recent entry, or 0
// for an empty window. Retirement sweeps use it to decide whether a
// history has fully aged out of the benefit horizon.
func (w *Window) LastPos() int {
	if len(w.pos) == 0 {
		return 0
	}
	return w.pos[len(w.pos)-1]
}

// BenefitStats is idxStats: per-index benefit histories, kept in an
// array indexed by ID. Registry IDs are dense, so the array is O(registry
// size); every restore path checks IDs against the registry first.
type BenefitStats struct {
	hist    int
	entries []benefitEntry // by ID; w is nil where no history is retained
	live    int            // entries with a history
}

// benefitEntry is one index's history with a summary of it, which
// PenalizedBound reads so that chooseTop's scan of the whole universe
// touches one flat array instead of every window. The summary is derived
// state, rebuilt wherever a window is installed or changed, and never
// exported.
//
// sum caches CurrentPenalized's running sum over the whole window for
// penalty sumPenalty: −penalty plus the values, newest first, in the same
// float operations. Values are positive, so that running sum only grows,
// and the full sum over the smallest denominator (the largest, if the sum
// is negative) bounds every ratio CurrentPenalized takes the maximum of.
type benefitEntry struct {
	w              *Window
	newest, oldest int     // positions of the newest and oldest entries
	last           float64 // the newest entry's value
	sum            float64
	sumPenalty     float64
	sumValid       bool
}

// NewBenefitStats creates benefit statistics with the given histSize.
func NewBenefitStats(histSize int) *BenefitStats {
	return &BenefitStats{hist: histSize}
}

// window returns a's history, or nil when none is retained.
func (s *BenefitStats) window(a index.ID) *Window {
	if int(a) < len(s.entries) {
		return s.entries[a].w
	}
	return nil
}

// put installs w as a's history and summarizes it.
func (s *BenefitStats) put(a index.ID, w *Window) {
	if int(a) >= len(s.entries) {
		s.entries = append(s.entries, make([]benefitEntry, int(a)+1-len(s.entries))...)
	}
	e := &s.entries[a]
	if e.w == nil {
		s.live++
	}
	*e = benefitEntry{w: w}
	if k := len(w.pos); k > 0 {
		e.newest, e.oldest, e.last = w.pos[k-1], w.pos[0], w.vals[k-1]
	}
}

// Add records βn for index a at position n (ignored unless finite and
// positive).
func (s *BenefitStats) Add(a index.ID, n int, beta float64) {
	if !recordable(beta) {
		return
	}
	w := s.window(a)
	if w == nil {
		w = NewWindow(s.hist)
	}
	w.Add(n, beta)
	s.put(a, w)
}

// Current returns benefit*_N(a).
func (s *BenefitStats) Current(a index.ID, n int) float64 {
	if w := s.window(a); w != nil {
		return w.Current(n)
	}
	return 0
}

// CurrentPenalized returns benefit*_N(a) with a one-time cost charged
// against the accumulated benefit (see Window.CurrentPenalized).
func (s *BenefitStats) CurrentPenalized(a index.ID, n int, penalty float64) float64 {
	if w := s.window(a); w != nil {
		return w.CurrentPenalized(n, penalty)
	}
	return -penalty
}

// PenalizedBound reports whether benefit*_N(a) is positive and, when it
// is, returns an upper bound on CurrentPenalized(a, n, penalty) (see
// benefitEntry). It reads only a's summary, except to recompute the cached
// sum after an Add or for a new penalty, and to settle positivity when the
// newest entry's ratio underflows.
func (s *BenefitStats) PenalizedBound(a index.ID, n int, penalty float64) (float64, bool) {
	if int(a) >= len(s.entries) {
		return 0, false
	}
	e := &s.entries[a]
	if e.w == nil || e.last/denominator(n, e.newest) <= 0 && e.w.Current(n) <= 0 {
		return 0, false
	}
	if !e.sumValid || e.sumPenalty != penalty {
		acc := -penalty
		for i := len(e.w.vals) - 1; i >= 0; i-- {
			acc += e.w.vals[i]
		}
		e.sum, e.sumPenalty, e.sumValid = acc, penalty, true
	}
	if e.sum >= 0 {
		return e.sum / denominator(n, e.newest), true
	}
	return e.sum / denominator(n, e.oldest), true
}

// Len reports the number of retained per-index histories.
func (s *BenefitStats) Len() int { return s.live }

// LastPos returns the position of a's most recent benefit observation,
// or 0 when no history is retained.
func (s *BenefitStats) LastPos(a index.ID) int {
	if w := s.window(a); w != nil {
		return w.LastPos()
	}
	return 0
}

// Evict drops a's history entirely. Candidate retirement calls it when a
// leaves the monitored universe; re-observing the index later starts a
// fresh window.
func (s *BenefitStats) Evict(a index.ID) {
	if s.window(a) != nil {
		s.entries[a] = benefitEntry{}
		s.live--
	}
}

// Remap rebuilds the statistics under a new ID space: every retained
// history keyed by old ID moves to remap[old]. Registry compaction is the
// only caller; it guarantees every retained key maps to a valid new ID.
func (s *BenefitStats) Remap(remap []index.ID) {
	old := s.entries
	s.entries, s.live = nil, 0
	for id, e := range old {
		if e.w == nil {
			continue
		}
		nid := remap[id]
		if nid == index.Invalid {
			panic("interaction: BenefitStats.Remap dropping a live history")
		}
		s.put(nid, e.w)
	}
}

// Pair is an unordered index pair with A < B.
type Pair struct {
	A, B index.ID
}

// MakePair normalizes the order of a pair.
func MakePair(a, b index.ID) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// InteractionStats is intStats: pairwise doi histories.
type InteractionStats struct {
	hist int
	m    map[Pair]*Window
}

// NewInteractionStats creates interaction statistics with the given
// histSize.
func NewInteractionStats(histSize int) *InteractionStats {
	return &InteractionStats{hist: histSize, m: make(map[Pair]*Window)}
}

// Add records doi_qn(a,b) = d at position n (ignored unless finite and
// positive).
func (s *InteractionStats) Add(a, b index.ID, n int, d float64) {
	if !recordable(d) || a == b {
		return
	}
	p := MakePair(a, b)
	w, ok := s.m[p]
	if !ok {
		w = NewWindow(s.hist)
		s.m[p] = w
	}
	w.Add(n, d)
}

// Current returns doi*_N(a,b).
func (s *InteractionStats) Current(a, b index.ID, n int) float64 {
	if w, ok := s.m[MakePair(a, b)]; ok {
		return w.Current(n)
	}
	return 0
}

// Len reports the number of retained pair histories.
func (s *InteractionStats) Len() int { return len(s.m) }

// Evict drops every pair history touching a. Candidate retirement calls
// it when a leaves the monitored universe: an interaction with a retired
// index can never influence a partition again.
func (s *InteractionStats) Evict(a index.ID) {
	for p := range s.m {
		if p.A == a || p.B == a {
			delete(s.m, p)
		}
	}
}

// SweepAged drops pair histories whose most recent observation is at or
// before cutoff — interactions the workload has stopped exhibiting. It
// returns the number of histories removed. Deleting a window only ever
// lowers the pair's doi estimate to zero, which is where the estimate was
// converging anyway as the window aged.
func (s *InteractionStats) SweepAged(cutoff int) int {
	removed := 0
	for p, w := range s.m {
		if w.LastPos() <= cutoff {
			delete(s.m, p)
			removed++
		}
	}
	return removed
}

// Remap rebuilds the statistics under a new ID space (see
// BenefitStats.Remap). Compaction's remap is monotone, so the A < B
// normalization of every retained pair is preserved.
func (s *InteractionStats) Remap(remap []index.ID) {
	m := make(map[Pair]*Window, len(s.m))
	for p, w := range s.m {
		a, b := remap[p.A], remap[p.B]
		if a == index.Invalid || b == index.Invalid {
			panic("interaction: InteractionStats.Remap dropping a live history")
		}
		m[MakePair(a, b)] = w
	}
	s.m = m
}

// Pairs returns the recorded pairs in deterministic order.
func (s *InteractionStats) Pairs() []Pair {
	out := make([]Pair, 0, len(s.m))
	for p := range s.m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
