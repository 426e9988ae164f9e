package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/index"
)

// bruteOpt computes the true offline-optimal total work over all
// schedules for a small candidate set (the reference for competitive-
// ratio checks).
func bruteOpt(reg *index.Registry, cand index.Set, s0 index.Set, costs []*fakeCost) float64 {
	subsets := allSubsets(cand)
	cur := make([]float64, len(subsets))
	for k, s := range subsets {
		cur[k] = reg.Delta(s0, s)
	}
	for _, sc := range costs {
		next := make([]float64, len(subsets))
		for k := range next {
			next[k] = math.Inf(1)
		}
		for k, sk := range subsets {
			ck := sc.Cost(sk)
			for j, sj := range subsets {
				if v := cur[j] + reg.Delta(sj, sk) + ck; v < next[k] {
					next[k] = v
				}
			}
		}
		cur = next
	}
	best := math.Inf(1)
	for _, v := range cur {
		best = math.Min(best, v)
	}
	return best
}

// wfaTotalWork replays WFA's recommendations and accumulates the total
// work metric (cost in the new state plus the transition into it).
func wfaTotalWork(reg *index.Registry, wfa *WFA, costs []*fakeCost) float64 {
	total := 0.0
	prev := wfa.Recommend()
	for _, sc := range costs {
		wfa.AnalyzeStatement(sc)
		rec := wfa.Recommend()
		total += reg.Delta(prev, rec) + sc.Cost(rec)
		prev = rec
	}
	return total
}

// TestWFACompetitiveBound checks Theorem 4.1 empirically: on randomized
// adversarial workloads over |C| = 3 candidates, WFA's total work stays
// within the proven bound (2^{|C|+1} − 1) · OPT + α. The additive
// constant α is bounded by (2^{|C|+1} − 2)·µ with µ the largest
// transition cost; we fold it in explicitly.
func TestWFACompetitiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		create := 5 + rng.Float64()*30
		reg, ids := newTestRegistry(3, create, 1)
		cand := index.NewSet(ids...)
		wfa := NewWFA(reg, cand, index.EmptySet)

		// Adversarial-ish workload: abrupt swings between configurations.
		n := 30 + rng.Intn(30)
		costs := make([]*fakeCost, n)
		for i := range costs {
			costs[i] = randomCostFn(rng, cand, 0, 40)
		}

		got := wfaTotalWork(reg, wfa, costs)
		opt := bruteOpt(reg, cand, index.EmptySet, costs)
		ratio := float64(int(1)<<(cand.Len()+1)) - 1 // 2^{|C|+1} − 1
		mu := 3 * (create + 1)                       // max transition cost over the cube
		alpha := (ratio - 1) * mu
		if got > ratio*opt+alpha+1e-6 {
			t.Fatalf("trial %d: WFA total work %v exceeds bound %v·%v + %v",
				trial, got, ratio, opt, alpha)
		}
	}
}

// TestWFAAverageCaseNearOptimal mirrors the paper's empirical message:
// on benign workloads with persistent structure (not adversarial), WFA's
// total work lands within a small constant of optimal, far below the
// exponential worst-case bound.
func TestWFAAverageCaseNearOptimal(t *testing.T) {
	reg, ids := newTestRegistry(3, 25, 1)
	cand := index.NewSet(ids...)
	wfa := NewWFA(reg, cand, index.EmptySet)

	// Two regimes of 40 statements each: first favors {a0}, then {a1}.
	mk := func(good index.ID) *fakeCost {
		return &fakeCost{
			fn: func(cfg index.Set) float64 {
				if cfg.Contains(good) {
					return 5
				}
				return 30
			},
			infl: cand,
		}
	}
	var costs []*fakeCost
	for i := 0; i < 40; i++ {
		costs = append(costs, mk(ids[0]))
	}
	for i := 0; i < 40; i++ {
		costs = append(costs, mk(ids[1]))
	}
	got := wfaTotalWork(reg, wfa, costs)
	opt := bruteOpt(reg, cand, index.EmptySet, costs)
	if got > 1.5*opt {
		t.Fatalf("average case far from optimal: WFA %v vs OPT %v", got, opt)
	}
}

// TestWFAPlusStateSavings verifies the §4.2 bookkeeping claim: a stable
// partition tracks Σ 2^|Ck| configurations instead of 2^|C|.
func TestWFAPlusStateSavings(t *testing.T) {
	reg, ids := newTestRegistry(8, 10, 1)
	partition := []index.Set{
		index.NewSet(ids[0], ids[1], ids[2], ids[3]),
		index.NewSet(ids[4], ids[5], ids[6], ids[7]),
	}
	plus := NewWFAPlus(reg, partition, index.EmptySet)
	if got, want := plus.Partition().States(), 16+16; got != want {
		t.Fatalf("Partition().States() = %d, want %d", got, want)
	}
	// The paper's back-of-the-envelope example: 32 indices in parts of 4
	// would need 8·16 = 128 states instead of 2^32.
}
