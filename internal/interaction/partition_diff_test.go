package interaction

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
)

// diffDoi draws interaction histories for a share density of d's pairs
// and for pairs of d's members with outsiders (IDs below, between and
// above them), then reads them at a random position and doi threshold in
// the two forms WFIT has handed Choose: as the doi function refPartitioner
// reads (Current, zero at or below the threshold) and as the pair list
// Choose takes (AppendPairs). The recorded values mix small integers (ties
// in merge weights and losses), spread-out floats, tiny magnitudes, and
// values at the threshold, and some pairs carry an older entry or a
// window capped below their entry count.
func diffDoi(rng *rand.Rand, d index.Set, density float64) (DoiFunc, []PairDoi) {
	s := NewInteractionStats([]int{0, 1, 3}[rng.Intn(3)])
	n := 20 + rng.Intn(10)
	threshold := []float64{0, 1e-6, 2}[rng.Intn(3)]
	value := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(4) + 1)
		case 1:
			return rng.ExpFloat64() * 100
		case 2:
			return rng.Float64() * 1e-9
		default:
			return threshold
		}
	}
	seen := make(map[Pair]bool)
	record := func(a, b index.ID) {
		if p := MakePair(a, b); !seen[p] {
			seen[p] = true
			if rng.Intn(4) == 0 {
				s.Add(a, b, n-1-rng.Intn(15), value())
			}
		}
		s.Add(a, b, n, value())
	}
	for i := 0; i < d.Len(); i++ {
		for j := i + 1; j < d.Len(); j++ {
			if rng.Float64() < density {
				record(d.At(i), d.At(j))
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			if x := index.ID(1 + rng.Intn(3*d.Len()+10)); !d.Contains(x) {
				record(d.At(i), x)
			}
		}
	}
	doi := func(a, b index.ID) float64 {
		v := s.Current(a, b, n)
		if v <= threshold {
			return 0
		}
		return v
	}
	return doi, s.AppendPairs(nil, d, n, threshold)
}

// diffCurrent draws a previous partition: random groups over part of d
// plus indices d no longer holds, in no particular part order.
func diffCurrent(rng *rand.Rand, d index.Set) Partition {
	var pool []index.ID
	for k := 0; k < d.Len(); k++ {
		if rng.Intn(3) > 0 {
			pool = append(pool, d.At(k))
		}
	}
	for k := 0; k < 3; k++ {
		pool = append(pool, index.ID(1000+rng.Intn(50)))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var out Partition
	for len(pool) > 0 {
		k := 1 + rng.Intn(min(4, len(pool)))
		out = append(out, index.NewSet(pool[:k]...))
		pool = pool[k:]
	}
	return out
}

// diffCandidates draws a candidate set of n IDs out of [1, 3n].
func diffCandidates(rng *rand.Rand, n int) index.Set {
	perm := rng.Perm(3 * n)
	ids := make([]index.ID, n)
	for k := range ids {
		ids[k] = index.ID(perm[k] + 1)
	}
	return index.NewSet(ids...)
}

// TestChooseMatchesReference holds Choose to the pre-matrix
// implementation: on sparse and dense doi, candidate sets on both sides
// of 64, tight and loose bounds, and empty and non-empty current
// partitions, every call must return the same partition and leave the
// random source in the same state. Choose takes its pair list from the
// interaction histories that the reference reads as a doi function, and
// the list must be exactly the reference's positive pairs. The bounds include both edges of the
// singleton phase's guard: maxPart 1, where singleton merges fail on
// size, and StateCnt 2n, the largest bound at which they fail on neither.
// Each configuration runs a short sequence of calls on one Partitioner,
// feeding each result back as the next current partition, as WFIT does,
// so scratch reuse is covered too.
func TestChooseMatchesReference(t *testing.T) {
	type bounds struct {
		name              string
		stateCnt, maxPart int
	}
	sizes := []int{0, 1, 2, 7, 24, 40, 63, 64, 65, 90}
	for _, n := range sizes {
		for _, density := range []float64{0.03, 0.3, 0.9} {
			for _, b := range []bounds{
				{"loose", 0, 0},
				{"roomy", 1 << 12, 14},
				{"tight", 2*n + 6, 3},
				{"pairs", 3 * n, 2},
				{"unmergeable", 0, 1},
				{"singles", 2 * n, 10},
				{"infeasible", 2*n - 1, 10},
			} {
				for _, withCurrent := range []bool{false, true} {
					name := fmt.Sprintf("n%d/doi%.2f/%s/current=%v", n, density, b.name, withCurrent)
					seed := int64(n*1000) + int64(density*100) + int64(len(b.name))
					if withCurrent {
						seed += 7
					}
					rng := rand.New(rand.NewSource(seed))
					pt := &Partitioner{StateCnt: b.stateCnt, MaxPartSize: b.maxPart, RandCnt: 1 + rng.Intn(6), Rand: NewRand(seed)}
					ref := &refPartitioner{StateCnt: pt.StateCnt, MaxPartSize: pt.MaxPartSize, RandCnt: pt.RandCnt, Rand: NewRand(seed)}
					var current Partition
					for call := 0; call < 4; call++ {
						d := diffCandidates(rng, n)
						doi, pairs := diffDoi(rng, d, density)
						if want := pairsOf(d, doi); !slices.Equal(pairs, want) {
							t.Fatalf("%s call %d: AppendPairs = %v, positive pairs of the doi %v", name, call, pairs, want)
						}
						if withCurrent && current == nil {
							current = diffCurrent(rng, d)
						}
						want := ref.Choose(d, current, doi)
						got := pt.Choose(d, current, pairs)
						if len(got) != len(want) || !got.EqualNormalized(want) {
							t.Fatalf("%s call %d: Choose = %v, reference %v", name, call, got, want)
						}
						if g, w := pt.Rand.(*Rand).State(), ref.Rand.(*Rand).State(); g != w {
							t.Fatalf("%s call %d: random state %x, reference %x", name, call, g, w)
						}
						if withCurrent {
							current = got
						}
					}
				}
			}
		}
	}
}

// TestMatrixLossMatchesLoss checks that scoring a partition from the
// singleton matrix reproduces Partition.Loss bit for bit, for parts in
// arbitrary order.
func TestMatrixLossMatchesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pt := &Partitioner{}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(80)
		d := diffCandidates(rng, n)
		doi, pairs := diffDoi(rng, d, rng.Float64())
		pt.load(d, pairs)
		parts := 1 + rng.Intn(n+1)
		order := rng.Perm(parts)
		for x := range pt.rank {
			pt.rank[x] = order[rng.Intn(parts)]
		}
		pt.group(parts)
		var p Partition
		for q := 0; q < parts; q++ {
			var ids []index.ID
			for x, r := range pt.rank {
				if r == q {
					ids = append(ids, d.At(x))
				}
			}
			p = append(p, index.NewSet(ids...))
		}
		want := p.Loss(doi)
		if got := pt.loss(math.Inf(1)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: matrix loss %v, Partition.Loss %v", trial, got, want)
		}
	}
}
