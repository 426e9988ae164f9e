// Package interaction maintains the workload statistics behind WFIT's
// candidate selection — per-index benefit histories and pairwise degrees
// of interaction — and computes stable partitions of candidate indices,
// including the randomized choosePartition procedure of Figure 7.
package interaction

import (
	"math"
	"slices"

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
// size); RestoreBenefitStats checks IDs against the registry first.
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
// Both cached figures are for one penalty. sum is CurrentPenalized's
// running sum over the whole window: −penalty plus the values, newest
// first, in the same float operations. Values are positive, so that
// running sum only grows, and the full sum over the smallest denominator
// (the largest, if the sum is negative) bounds every ratio
// CurrentPenalized takes the maximum of. score is the last exact
// CurrentPenalized, taken at position scorePos (see PenalizedScore).
type benefitEntry struct {
	w              *Window
	newest, oldest int     // positions of the newest and oldest entries
	last           float64 // the newest entry's value
	penalty        float64 // the penalty sum and score are for
	sum            float64
	score          float64
	scorePos       int
	sumValid       bool
	scoreValid     bool
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
//
// The bound is the lesser of the window sum's and, while no Add has
// touched the window since, the last exact score when that score is
// non-negative and was taken at a position at or before n. That score is
// exact as a bound: each ratio's numerator stays the same float while its
// denominator N − nℓ + 1 only grows, and IEEE division is monotone, so a
// non-negative numerator's ratio can only fall and a negative one stays
// below zero, and so at or below the cached score.
func (s *BenefitStats) PenalizedBound(a index.ID, n int, penalty float64) (float64, bool) {
	if int(a) >= len(s.entries) {
		return 0, false
	}
	e := &s.entries[a]
	if e.w == nil || e.last/denominator(n, e.newest) <= 0 && e.w.Current(n) <= 0 {
		return 0, false
	}
	e.forPenalty(penalty)
	if !e.sumValid {
		acc := -penalty
		for i := len(e.w.vals) - 1; i >= 0; i-- {
			acc += e.w.vals[i]
		}
		e.sum, e.sumValid = acc, true
	}
	bound := e.sum / denominator(n, e.oldest)
	if e.sum >= 0 {
		bound = e.sum / denominator(n, e.newest)
	}
	if e.scoreValid && e.score >= 0 && e.scorePos <= n && e.score < bound {
		bound = e.score
	}
	return bound, true
}

// PenalizedScore returns CurrentPenalized(a, n, penalty) and keeps it in
// a's summary, where PenalizedBound reads it as a bound until the next
// Add to a's window.
func (s *BenefitStats) PenalizedScore(a index.ID, n int, penalty float64) float64 {
	v := s.CurrentPenalized(a, n, penalty)
	if s.window(a) != nil {
		e := &s.entries[a]
		e.forPenalty(penalty)
		e.score, e.scorePos, e.scoreValid = v, n, true
	}
	return v
}

// forPenalty drops the cached figures when they are for another penalty.
func (e *benefitEntry) forPenalty(penalty float64) {
	if e.penalty != penalty {
		e.penalty, e.sumValid, e.scoreValid = penalty, false, false
	}
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

// RetireIdle is idle retirement's sweep: it evicts the history of every
// member of u outside keep whose newest observation is at or before
// cutoff, and returns u without those members and them in ascending
// order. LastPos is 0 for an empty history, so a candidate mined but never
// observed beneficial ages out on the same schedule.
func (s *BenefitStats) RetireIdle(u, keep index.Set, cutoff int) (index.Set, []index.ID) {
	var dead []index.ID
	u.Each(func(id index.ID) {
		if !keep.Contains(id) && s.LastPos(id) <= cutoff {
			dead = append(dead, id)
		}
	})
	if len(dead) == 0 {
		return u, nil
	}
	for _, id := range dead {
		s.Evict(id)
	}
	return u.Minus(index.NewSet(dead...)), dead
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

// InteractionStats is intStats: pairwise doi histories, kept in an
// ID-indexed partner adjacency. Each pair (A, B), A < B, is listed once,
// under A, and each list ascends by partner, so the pairs inside one
// candidate set are found by walking its members' lists, without visiting
// any other history. Add, Evict, SweepAged and Remap update the lists in
// place.
type InteractionStats struct {
	hist  int
	adj   [][]partner // by ID A: the pairs (A, B) with a history, ascending by B
	pairs int         // retained pair histories
}

// partner is one entry of a partner list: the pair's larger index and its
// window.
type partner struct {
	id index.ID
	w  *Window
}

// PairDoi is one interacting pair of a candidate set, A < B, with its
// positive degree of interaction.
type PairDoi struct {
	A, B index.ID
	Doi  float64
}

// NewInteractionStats creates interaction statistics with the given
// histSize.
func NewInteractionStats(histSize int) *InteractionStats {
	return &InteractionStats{hist: histSize}
}

// find returns pair p's position in its partner list, or the position
// where it would be inserted, and whether it is there.
func (s *InteractionStats) find(p Pair) (int, bool) {
	if int(p.A) >= len(s.adj) {
		return 0, false
	}
	return search(s.adj[p.A], p.B)
}

// search returns the position of b in the partner list ps, or the
// position where b would be inserted, and whether b is there.
func search(ps []partner, b index.ID) (int, bool) {
	lo, hi := 0, len(ps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ps[m].id < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ps) && ps[lo].id == b
}

// insert lists the new pair p with window w at position k of its list.
func (s *InteractionStats) insert(p Pair, k int, w *Window) {
	if int(p.A) >= len(s.adj) {
		s.adj = append(s.adj, make([][]partner, int(p.A)+1-len(s.adj))...)
	}
	s.adj[p.A] = slices.Insert(s.adj[p.A], k, partner{id: p.B, w: w})
	s.pairs++
}

// Add records doi_qn(a,b) = d at position n (ignored unless finite and
// positive).
func (s *InteractionStats) Add(a, b index.ID, n int, d float64) {
	if !recordable(d) || a == b {
		return
	}
	p := MakePair(a, b)
	k, ok := s.find(p)
	if !ok {
		s.insert(p, k, NewWindow(s.hist))
	}
	s.adj[p.A][k].w.Add(n, d)
}

// Current returns doi*_N(a,b).
func (s *InteractionStats) Current(a, b index.ID, n int) float64 {
	p := MakePair(a, b)
	if k, ok := s.find(p); ok {
		return s.adj[p.A][k].w.Current(n)
	}
	return 0
}

// AppendPairs appends to dst every pair of members of d whose doi*_N is
// positive and above threshold, in ascending (A, B) order — the input
// Partitioner.Choose takes — and returns the extended slice. It walks each
// member's partner list beside the members after it, so its cost is that
// of d's partner lists, not of d's n(n−1)/2 pairs.
func (s *InteractionStats) AppendPairs(dst []PairDoi, d index.Set, n int, threshold float64) []PairDoi {
	for i := 0; i < d.Len(); i++ {
		a := d.At(i)
		if int(a) >= len(s.adj) {
			break
		}
		ps := s.adj[a]
		for k, j := 0, i+1; k < len(ps) && j < d.Len(); {
			switch p, b := ps[k], d.At(j); {
			case p.id < b:
				k++
			case p.id > b:
				j++
			default:
				if v := p.w.Current(n); !(v <= threshold) && v > 0 {
					dst = append(dst, PairDoi{A: a, B: b, Doi: v})
				}
				k++
				j++
			}
		}
	}
	return dst
}

// Len reports the number of retained pair histories.
func (s *InteractionStats) Len() int { return s.pairs }

// Evict drops every pair history touching a. Candidate retirement calls
// it when a leaves the monitored universe: an interaction with a retired
// index can never influence a partition again.
func (s *InteractionStats) Evict(a index.ID) {
	for x := range min(int(a), len(s.adj)) {
		if k, ok := search(s.adj[x], a); ok {
			s.adj[x] = slices.Delete(s.adj[x], k, k+1)
			s.pairs--
		}
	}
	if int(a) < len(s.adj) {
		s.pairs -= len(s.adj[a])
		s.adj[a] = nil
	}
}

// SweepAged drops pair histories whose most recent observation is at or
// before cutoff — interactions the workload has stopped exhibiting. It
// returns the number of histories removed. Deleting a window only ever
// lowers the pair's doi estimate to zero, which is where the estimate was
// converging anyway as the window aged.
func (s *InteractionStats) SweepAged(cutoff int) int {
	removed := 0
	for a, ps := range s.adj {
		kept := ps[:0]
		for _, p := range ps {
			if p.w.LastPos() > cutoff {
				kept = append(kept, p)
			}
		}
		if len(kept) == len(ps) {
			continue
		}
		removed += len(ps) - len(kept)
		clear(ps[len(kept):])
		if len(kept) == 0 {
			kept = nil
		}
		s.adj[a] = kept
	}
	s.pairs -= removed
	return removed
}

// Remap rebuilds the statistics under a new ID space (see
// BenefitStats.Remap). Compaction's remap is monotone and never raises an
// ID, so every partner list keeps its order and moves down the adjacency.
func (s *InteractionStats) Remap(remap []index.ID) {
	adj := make([][]partner, len(s.adj))
	top := 0
	for a, ps := range s.adj {
		if len(ps) == 0 {
			continue
		}
		na := remap[a]
		for k := range ps {
			ps[k].id = remap[ps[k].id]
			if na == index.Invalid || ps[k].id == index.Invalid {
				panic("interaction: InteractionStats.Remap dropping a live history")
			}
			if ps[k].id <= na || k > 0 && ps[k].id <= ps[k-1].id {
				panic("interaction: InteractionStats.Remap needs a monotone remap")
			}
		}
		adj[na] = ps
		top = int(na) + 1
	}
	s.adj = adj[:top]
}
