// Package bc implements the BC baseline of §6.1: an adaptation of the
// Bruno–Chaudhuri online physical design tuner (ICDE 2007). BC treats
// every candidate index independently (the full-independence stable
// partition) and maintains a per-index accumulator of observed marginal
// benefits; an index is created when its accumulated foregone benefit pays
// for its creation, and dropped when the accumulated penalty while
// materialized exceeds its round-trip transition cost.
//
// The defining contrast with WFIT is the heuristic treatment of index
// interactions: marginal benefits systematically under-credit indices that
// win jointly (e.g. via index intersection or nested-loop pipelines),
// whereas WFIT's work function tracks the joint configuration space.
package bc

import (
	"repro/internal/core"
	"repro/internal/index"
)

// BC is the online tuner. It selects recommendations from a fixed
// candidate set, like the experiments in §6.
type BC struct {
	reg        *index.Registry
	candidates []index.ID
	delta      map[index.ID]float64
	rec        index.Set
}

// New creates a BC instance over the candidate set with initial
// configuration s0 ∩ candidates.
func New(reg *index.Registry, candidates index.Set, s0 index.Set) *BC {
	return &BC{
		reg:        reg,
		candidates: candidates.IDs(),
		delta:      make(map[index.ID]float64),
		rec:        s0.Intersect(candidates),
	}
}

// Recommend returns BC's current configuration.
func (b *BC) Recommend() index.Set { return b.rec }

// Accumulator exposes the current accumulator value of an index (for
// tests and diagnostics).
func (b *BC) Accumulator(id index.ID) float64 { return b.delta[id] }

// AnalyzeStatement observes one statement: distribute the configuration's
// realized benefit (or maintenance penalty) equally among the active
// materialized indexes, credit absent candidates with their hypothetical
// marginal benefit, then apply the create/drop threshold rules.
//
// The equal split is the heuristic interaction treatment the paper
// contrasts WFIT against: when indexes win jointly (intersections,
// nested-loop pipelines), per-index attribution is arbitrary, so BC
// under-credits strong synergies and over-credits free riders; update
// penalties are likewise diluted across co-active indexes, which delays
// drops.
func (b *BC) AnalyzeStatement(sc core.StatementCost) {
	influential := sc.Influential(index.NewSet(b.candidates...))
	if influential.Empty() {
		return
	}
	curCost := sc.Cost(b.rec)

	// Realized benefit of the whole materialized configuration, split
	// equally among its active members (negative for updates).
	active := sc.Influential(b.rec)
	if n := active.Len(); n > 0 {
		share := (sc.Cost(index.EmptySet) - curCost) / float64(n)
		active.Each(func(a index.ID) {
			b.delta[a] += share
			b.clamp(a)
		})
	}

	// Hypothetical marginal benefit of absent candidates. Like the
	// original tuner, BC is optimistic about absent candidates:
	// maintenance penalties only accumulate once an index is
	// materialized, so hypothetical negatives are floored at zero.
	for _, a := range b.candidates {
		if b.rec.Contains(a) || !influential.Contains(a) {
			continue
		}
		benefit := curCost - sc.Cost(b.rec.Add(a))
		if benefit > 0 {
			b.delta[a] += benefit
			b.clamp(a)
		}
	}

	// Threshold decisions. The create threshold is δ+(a): the foregone
	// benefit has paid for materialization (ski-rental argument). The
	// drop threshold is −(δ+(a) + δ−(a)): the accumulated penalty has
	// paid for a full round trip, which bounds thrashing.
	for _, a := range b.candidates {
		d := b.delta[a]
		def := b.reg.Get(a)
		switch {
		case !b.rec.Contains(a) && d >= def.CreateCost:
			b.rec = b.rec.Add(a)
			b.delta[a] = 0
		case b.rec.Contains(a) && d <= -(def.CreateCost+def.DropCost):
			b.rec = b.rec.Remove(a)
			b.delta[a] = 0
		}
	}
}

// clamp bounds the accumulator so stale credit or blame cannot grow
// without limit (mirroring the capped counters of the original design).
func (b *BC) clamp(a index.ID) {
	def := b.reg.Get(a)
	hi := def.CreateCost
	lo := -(def.CreateCost + def.DropCost)
	if b.delta[a] > hi {
		b.delta[a] = hi
	}
	if b.delta[a] < lo {
		b.delta[a] = lo
	}
}
