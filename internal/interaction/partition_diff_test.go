package interaction

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/index"
)

// diffDoi draws a symmetric doi over ids: each pair interacts with
// probability density, with values mixing small integers (ties in merge
// weights and losses), spread-out floats, and tiny magnitudes.
func diffDoi(rng *rand.Rand, ids []index.ID, density float64) DoiFunc {
	pairs := make(map[Pair]float64)
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if rng.Float64() >= density {
				continue
			}
			var v float64
			switch rng.Intn(3) {
			case 0:
				v = float64(rng.Intn(4) + 1)
			case 1:
				v = rng.ExpFloat64() * 100
			default:
				v = rng.Float64() * 1e-9
			}
			pairs[MakePair(ids[i], ids[j])] = v
		}
	}
	return testDoi(pairs)
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
// random source in the same state. The bounds include both edges of the
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
						doi := diffDoi(rng, d.IDs(), density)
						if withCurrent && current == nil {
							current = diffCurrent(rng, d)
						}
						want := ref.Choose(d, current, doi)
						got := pt.Choose(d, current, doi)
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
		doi := diffDoi(rng, d.IDs(), rng.Float64())
		pt.load(d, doi)
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
