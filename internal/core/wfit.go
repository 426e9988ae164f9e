package core

import (
	"slices"
	"time"

	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/interaction"
	"repro/internal/whatif"
)

// Options configures WFIT. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// IdxCnt bounds the number of monitored candidate indices (|C|).
	IdxCnt int
	// StateCnt bounds Σ 2^|Ck|, the tracked configurations.
	StateCnt int
	// HistSize bounds the per-index and per-pair statistic histories.
	HistSize int
	// RandCnt is the number of randomized restarts in choosePartition.
	RandCnt int
	// MaxPartSize caps a single part (WFA bitmask width).
	MaxPartSize int
	// DoiThreshold discards interactions with doi at or below it.
	DoiThreshold float64
	// Seed drives the deterministic randomness of choosePartition.
	Seed int64
	// RetireAfter bounds the tuner's memory of the mined universe: a
	// candidate outside C ∪ M (and not pinned by a DBA vote) whose
	// benefit history holds no observation within the last RetireAfter
	// statements is retired — dropped from U together with its benefit
	// and interaction histories. Retirement is what keeps a long-horizon
	// tuner O(monitored state) instead of O(workload history); a retired
	// index that becomes relevant again is simply re-mined with fresh
	// statistics. 0 (the default) disables retirement, preserving the
	// paper's grow-only U exactly.
	RetireAfter int
	// InitialMaterialized is S0, the materialized set at startup.
	InitialMaterialized index.Set
}

// RetireCutoff returns the position at or before which a history counts
// as idle after n statements, and false while retirement is off or no
// history can be RetireAfter statements old yet.
func (o Options) RetireCutoff(n int) (int, bool) {
	cutoff := n - o.RetireAfter
	return cutoff, o.RetireAfter > 0 && cutoff >= 0
}

// DefaultOptions returns the paper's experimental defaults (§6):
// idxCnt = 40, stateCnt = 500, histSize = 100.
func DefaultOptions() Options {
	return Options{
		IdxCnt:       40,
		StateCnt:     500,
		HistSize:     100,
		RandCnt:      8,
		MaxPartSize:  20,
		DoiThreshold: 1e-6,
		Seed:         1,
	}
}

// WFIT is the end-to-end semi-automatic index tuner of §5: WFA+ (its
// per-part work functions live in one WFAPlus) extended with (i) a
// feedback mechanism integrated with the per-part work functions, and (ii)
// automatic maintenance of the candidate set and its stable partition via
// online benefit/interaction statistics.
type WFIT struct {
	opt       *whatif.Optimizer
	extractor *cost.Extractor
	reg       *index.Registry
	options   Options

	s0           index.Set // initial materialized set (used by repartition)
	materialized index.Set // M: what the DBA has actually built
	universe     index.Set // U: every index mined from the workload

	idxStats *interaction.BenefitStats
	intStats *interaction.InteractionStats
	partn    *interaction.Partitioner
	rng      *interaction.Rand // the partitioner's random source (snapshot state)

	scoreScratch []scoredCandidate     // chooseTop scratch
	pairScratch  []interaction.PairDoi // choosePartition's pair list

	plus     *WFAPlus  // per-part work functions over the stable partition
	partsetC index.Set // cached plus.Partition().Union(), refreshed on repartition

	// pinned holds the F+ votes: chooseTop force-keeps a pinned index in C
	// for its grace window (see Votes), and a later F− vote unpins it
	// immediately.
	pinned Votes

	n            int // statements analyzed
	repartitions int
	retired      int // candidates retired from the universe so far
	lastIBGNodes int

	// lastRunDur/lastFinishDur split the most recent statement's
	// analysis wall time: run is the read-only phase (mining, IBG build,
	// maximizations) and finish the fold (stats, partition, WFA updates).
	// The service's per-statement traces read them right after the apply.
	lastRunDur    time.Duration
	lastFinishDur time.Duration
}

// NewWFIT builds a full WFIT instance. Per Figure 4's initialization, the
// candidate set starts as S0 with singleton parts.
func NewWFIT(opt *whatif.Optimizer, options Options) *WFIT {
	t := newWFITBase(opt, options)
	t.plus = NewWFAPlus(t.reg, interaction.Singletons(t.s0), t.s0)
	t.partsetC = t.s0
	t.universe = t.s0
	return t
}

func newWFITBase(opt *whatif.Optimizer, options Options) *WFIT {
	// The partitioner draws from a serializable source (not math/rand) so
	// snapshots can capture the exact stream position — see TunerState.
	rng := interaction.NewRand(options.Seed)
	return &WFIT{
		opt:          opt,
		extractor:    cost.NewExtractor(opt.Model()),
		reg:          opt.Model().Registry(),
		options:      options,
		s0:           options.InitialMaterialized,
		materialized: options.InitialMaterialized,
		idxStats:     interaction.NewBenefitStats(options.HistSize),
		intStats:     interaction.NewInteractionStats(options.HistSize),
		pinned:       make(Votes),
		rng:          rng,
		partn: &interaction.Partitioner{
			StateCnt:    options.StateCnt,
			MaxPartSize: options.MaxPartSize,
			RandCnt:     options.RandCnt,
			Rand:        rng,
		},
	}
}

// StatementsSeen returns the number of analyzed statements.
func (t *WFIT) StatementsSeen() int { return t.n }

// Repartitions returns how often the stable partition changed.
func (t *WFIT) Repartitions() int { return t.repartitions }

// UniverseSize returns |U|, the number of candidate indices currently
// retained (mined and not retired).
func (t *WFIT) UniverseSize() int { return t.universe.Len() }

// Retired returns the number of candidates retirement has dropped from
// the universe so far.
func (t *WFIT) Retired() int { return t.retired }

// StatsEntries reports the retained history counts: per-index benefit
// windows and pairwise interaction windows. With RetireAfter set, both
// plateau at O(monitored state) no matter how long the workload runs.
func (t *WFIT) StatsEntries() (benefit, pairs int) {
	return t.idxStats.Len(), t.intStats.Len()
}

// Partition returns the current stable partition.
func (t *WFIT) Partition() interaction.Partition { return t.plus.Partition() }

// LastIBGNodes reports the node count (= what-if calls) of the most recent
// statement's index benefit graph.
func (t *WFIT) LastIBGNodes() int { return t.lastIBGNodes }

// LastAnalysisDurations reports the wall time of the most recent
// statement's analysis, split in two: run is the read-only phase, finish
// the fold.
func (t *WFIT) LastAnalysisDurations() (run, finish time.Duration) {
	return t.lastRunDur, t.lastFinishDur
}

// SetMaterialized records the DBA's actual physical configuration, which
// candidate selection must keep covered (the M set of Figure 6).
func (t *WFIT) SetMaterialized(m index.Set) { t.materialized = m }

// Materialized returns the tuner's view of the physical configuration.
// After CompactRegistry, this — not any set captured before the
// compaction — is the valid form of M: callers that keep their own copy
// must refresh it here, because compaction renumbered every ID.
func (t *WFIT) Materialized() index.Set { return t.materialized }

// Recommend returns the current recommendation ⋃_k currRec_k.
func (t *WFIT) Recommend() index.Set { return t.plus.Recommend() }

// retire implements the RetireAfter bound (one sweep per statement): a
// universe member outside C ∪ M ∪ S0 whose benefit history holds no
// observation newer than the cutoff is dropped from U along with its
// histories, and pair histories the workload has stopped exhibiting are
// swept regardless of endpoints. Everything here is a deterministic
// function of the tuner state, so retirement preserves the bit-identical
// recovery guarantee. The sweep touches only retained state — O(|U| +
// pair histories), both of which retirement itself keeps bounded.
func (t *WFIT) retire() {
	cutoff, ok := t.options.RetireCutoff(t.n)
	if !ok {
		return
	}
	keep := t.partsetC.Union(t.materialized).Union(t.s0).Union(t.pinned.Active(t.n, t.options.HistSize))
	var dead []index.ID
	t.universe, dead = t.idxStats.RetireIdle(t.universe, keep, cutoff)
	for _, id := range dead {
		t.intStats.Evict(id)
	}
	t.retired += len(dead)
	t.intStats.SweepAged(cutoff)
}

// scoredCandidate is one chooseTop entry: an index and its score. While
// bound is set the score is only an upper bound on the index's penalized
// score.
type scoredCandidate struct {
	id    index.ID
	score float64
	bound bool
}

// before reports whether a ranks ahead of b: score descending, then ID
// ascending.
func (a scoredCandidate) before(b scoredCandidate) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// chooseTop implements topIndices: keep the materialized set M and the
// vote-pinned indices, then fill up to idxCnt with the highest-scoring
// candidates. Currently-monitored indices score benefit*; others are
// additionally charged their creation cost against the accumulated
// benefit in the statistics window, so a newcomer must gather enough
// recent evidence to pay for its own materialization before it can evict
// a monitored index — which keeps C stable (Section 5.2.2). Pinning
// closes the gap that stability rule leaves for fresh F+ votes: a
// just-voted index has an empty window, scores 0, and would otherwise be
// evicted by the very next statement.
//
// Candidates are taken from a max-heap in score order. A newcomer enters
// it with an exact upper bound on its score (BenefitStats.PenalizedBound,
// read from a dense per-ID summary: the window sum, or the last exact
// score while the window is unchanged) and is scored exactly only when
// that bound reaches the top, so the order taken is the full sort's, while
// most of the universe costs O(1).
func (t *WFIT) chooseTop() index.Set {
	m := t.materialized.Intersect(t.universe).Union(t.pinned.Active(t.n, t.options.HistSize))
	budget := t.options.IdxCnt - m.Len()
	if budget < 0 {
		budget = 0
	}
	currentC := t.partsetC

	// U, m and C ascend, so one merge walk places each member of U.
	h := t.scoreScratch[:0]
	var inM, inC bool
	mk, ck := 0, 0
	for k := 0; k < t.universe.Len(); k++ {
		a := t.universe.At(k)
		if mk, inM = seek(m, mk, a); inM {
			continue
		}
		if ck, inC = seek(currentC, ck, a); inC {
			h = append(h, scoredCandidate{id: a, score: t.idxStats.Current(a, t.n)})
			continue
		}
		bound, ok := t.idxStats.PenalizedBound(a, t.n, t.reg.CreateCost(a))
		if !ok {
			continue // never beneficial: not worth monitoring yet
		}
		h = append(h, scoredCandidate{id: a, score: bound, bound: true})
	}
	t.scoreScratch = h
	for k := len(h)/2 - 1; k >= 0; k-- {
		siftDown(h, k)
	}
	// Greedy fill with nested-family dedup: an index whose key columns
	// nest with an already-chosen index on the same table is a
	// near-redundant alternative; monitoring both wastes a slot and
	// bloats parts with artificial interactions. Materialized indices
	// are always kept (the partition must cover them).
	var taken []index.ID
	for len(taken) < budget && len(h) > 0 {
		top := h[0]
		if top.bound {
			h[0] = scoredCandidate{id: top.id, score: t.idxStats.PenalizedScore(top.id, t.n, t.reg.CreateCost(top.id))}
			siftDown(h, 0)
			continue
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		def := t.reg.Get(top.id)
		redundant := false
		for k := 0; k < m.Len() && !redundant; k++ {
			redundant = index.Nested(def, t.reg.Get(m.At(k)))
		}
		for k := 0; k < len(taken) && !redundant; k++ {
			redundant = index.Nested(def, t.reg.Get(taken[k]))
		}
		if !redundant {
			taken = append(taken, top.id)
		}
	}
	slices.Sort(taken)
	return m.Union(index.NewSet(taken...))
}

// seek advances k past the members of s below a and reports whether a is
// the member at k.
func seek(s index.Set, k int, a index.ID) (int, bool) {
	for k < s.Len() && s.At(k) < a {
		k++
	}
	return k, k < s.Len() && s.At(k) == a
}

// siftDown restores the max-heap order (by before) of h below slot k.
func siftDown(h []scoredCandidate, k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// repartition implements Figure 5: initialize one WFA per new part with
// work function x(m)[X] = Σ_k w(k)[Ck ∩ X] + δ(S0 ∩ Dm − C, X − C) and
// recommendation Dm ∩ currRec. Old parts that do not overlap a new part
// would contribute the same w(k)[∅] to every X — a uniform shift — and are
// skipped.
//
// The composition runs in mask space: each overlapping old part
// contributes through a subset-DP remap table (old.w read with an array
// lookup per configuration) and the δ term fills as a per-bit-additive
// table, in the exact summation order the set-based formula used — so
// the rebuilt work functions are bit-identical to evaluating the Figure 5
// expression per configuration, at O(2^|Dm|) per overlapping part instead
// of O(2^|Dm|) set materializations, intersections, and merge scans.
func (t *WFIT) repartition(newPartition interaction.Partition) {
	oldParts := t.plus.parts
	oldC := t.partsetC
	currRec := t.Recommend()

	var parts []*WFA
	var rm []uint32
	var img []uint32
	for _, dm := range newPartition {
		newIdx := dm.Minus(oldC)        // Dm − C
		s0New := t.s0.Intersect(newIdx) // S0 ∩ Dm − C
		a := newWFAShell(t.reg, dm)
		a.currRec = a.MaskOf(dm.Intersect(currRec))
		size := len(a.w)
		if cap(rm) < size {
			rm = make([]uint32, size)
			img = make([]uint32, MaxPartBits)
		}
		rm = rm[:size]
		for s := range a.w {
			a.w[s] = 0
		}
		// Σ_k w(k)[Ck ∩ X], accumulated in old-part order so the
		// floating-point sums match the set-based evaluation exactly.
		for _, old := range oldParts {
			if old.candSet.Disjoint(dm) {
				continue
			}
			for j, id := range a.cand {
				if p, ok := old.pos[id]; ok {
					img[j] = 1 << p
				} else {
					img[j] = 0
				}
			}
			remapTable(rm, img[:len(a.cand)])
			for s := range a.w {
				a.w[s] += old.w[rm[s]]
			}
		}
		// + δ(S0 ∩ Dm − C, X − C): per-bit additive over the new indices,
		// summed in ascending ID order like Registry.Delta's merge scan.
		for j, id := range a.cand {
			switch {
			case !newIdx.Contains(id):
				a.c0[j], a.c1[j] = 0, 0
			case s0New.Contains(id):
				a.c0[j], a.c1[j] = a.drop[j], 0
			default:
				a.c0[j], a.c1[j] = 0, a.create[j]
			}
		}
		fillDeltaTable(a.v, a.c0, a.c1)
		for s := range a.w {
			a.w[s] += a.v[s]
		}
		a.normalize()
		parts = append(parts, a)
	}
	// The parts keep newPartition's order, which Feedback's extension
	// makes differ from Normalize order.
	t.plus.partition = newPartition.Normalize()
	t.plus.parts = parts
	t.partsetC = t.plus.partition.Union()
}

// CompactRegistry rebuilds the registry's ID space over the indices the
// tuner still references and threads the resulting remap through every
// retained structure: candidate sets, the stable partition, the per-part
// WFA bit assignments (relative bit positions survive because the remap
// is monotone, so work-function tables and recommendation masks are
// untouched), the benefit/interaction histories, and the vote pins. It
// returns the number of definitions dropped.
//
// Compaction is the second half of the memory bound: retirement shrinks
// the universe, compaction reclaims the interned definitions and keeps
// the ID space — and with it every ID-indexed table and snapshot — dense.
// It must run between statements (the service runs it on checkpoint,
// logged in the WAL so recovery compacts at the identical stream
// position). The tuner's observable behavior is unchanged: IDs are
// renumbered monotonically, so every ID-order tie-break ranks candidates
// exactly as before.
func (t *WFIT) CompactRegistry() int {
	live := t.universe.Union(t.materialized).Union(t.s0).Union(t.partsetC).Union(t.pinned.Voted())
	dropped := t.reg.Len() - live.Len()
	if dropped <= 0 {
		return 0
	}
	remap := t.reg.Compact(live)
	t.s0 = t.s0.Remap(remap)
	t.materialized = t.materialized.Remap(remap)
	t.universe = t.universe.Remap(remap)
	t.partsetC = t.partsetC.Remap(remap)
	t.plus.remapIDs(remap)
	t.idxStats.Remap(remap)
	t.intStats.Remap(remap)
	t.pinned = t.pinned.Remap(remap)
	return dropped
}

// Feedback implements WFIT.feedback (Figure 4). Positive votes for indices
// outside the current candidate set extend the partition with singleton
// parts first (through repartition), so the consistency constraint
// F+ ⊆ S can always be honored.
func (t *WFIT) Feedback(plus, minus index.Set) {
	// Pin F+ votes for the grace window (see the pinned field); an F−
	// vote withdraws any earlier pin immediately.
	t.pinned.Cast(plus, t.n)
	t.pinned.Withdraw(minus)
	if unknown := plus.Minus(t.partsetC); !unknown.Empty() {
		t.universe = t.universe.Union(unknown)
		extended := append(interaction.Partition{}, t.Partition()...)
		unknown.Each(func(id index.ID) {
			extended = append(extended, index.NewSet(id))
		})
		t.repartition(extended)
		t.repartitions++
	}
	t.plus.Feedback(plus, minus)
}
