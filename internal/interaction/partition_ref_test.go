package interaction

import (
	"math"
	"math/bits"

	"repro/internal/index"
)

// refPartitioner is the previous choosePartition implementation, kept
// verbatim as the reference the differential tests hold Partitioner to:
// it scores candidate partitions through Partition.Loss and doi, and
// sweeps every part in every merge round.
type refPartitioner struct {
	// StateCnt bounds Σ 2^|Pk|; non-positive means unbounded.
	StateCnt int
	// MaxPartSize caps single parts so the WFA bitmask stays machine-
	// sized; defaults to 20 when zero.
	MaxPartSize int
	// RandCnt is the number of randomized restarts (RAND_CNT).
	RandCnt int
	// Rand supplies randomness; required.
	Rand rngSource

	// scratch reused across Choose calls
	singles   []index.Set // singleton partition of d, shared by restarts
	parts     []index.Set
	baseCross []float64 // singleton cross-loss matrix, shared by restarts
	cross     []float64 // working n×n cross-loss matrix, flattened
	baseRows  []uint64  // per-part bitmask of positive-loss partners (n ≤ 64)
	rows      []uint64
	alive     []bool
	edges     []refEdge
	out       []index.Set // restart result scratch
}

// Choose computes a feasible partition of d, seeded by the current
// partition, minimizing loss under doi. The result is always in
// Normalize form, so callers may compare it with EqualNormalized.
func (pt *refPartitioner) Choose(d index.Set, current Partition, doi DoiFunc) Partition {
	maxPart := pt.MaxPartSize
	if maxPart <= 0 {
		maxPart = 20
	}
	feasible := func(p Partition) bool {
		if p.MaxPartSize() > maxPart {
			return false
		}
		return pt.StateCnt <= 0 || p.States() <= pt.StateCnt
	}

	var bestSoln Partition
	bestLoss := math.Inf(1)
	consider := func(p Partition) {
		if !feasible(p) {
			return
		}
		if l := p.Loss(doi); l < bestLoss {
			bestLoss = l
			bestSoln = p.Normalize()
		}
	}
	// considerNormalized is consider for partitions already in Normalize
	// form (randomMerge output is by construction: merges keep the
	// lowest-membered part in place), saving the re-sort and filter.
	considerNormalized := func(p Partition) {
		if !feasible(p) {
			return
		}
		if l := p.Loss(doi); l < bestLoss {
			bestLoss = l
			bestSoln = append(Partition{}, p...)
		}
	}

	// Baseline: the current partition restricted to d, plus singletons
	// for new indices.
	var baseline Partition
	covered := index.EmptySet
	for _, part := range current {
		kept := part.Intersect(d)
		if !kept.Empty() {
			baseline = append(baseline, kept)
			covered = covered.Union(kept)
		}
	}
	d.Minus(covered).Each(func(id index.ID) {
		baseline = append(baseline, index.NewSet(id))
	})
	consider(baseline)

	// Randomized merge restarts, all growing from the same singleton
	// start state: the singleton part list and its pairwise cross-loss
	// matrix are computed once, and each restart works on private copies
	// (the sets themselves are immutable and shared).
	randCnt := pt.RandCnt
	if randCnt <= 0 {
		randCnt = 8
	}
	pt.singles = append(pt.singles[:0], Singletons(d)...)
	n := len(pt.singles)
	if cap(pt.baseCross) < n*n {
		pt.baseCross = make([]float64, n*n)
		pt.cross = make([]float64, n*n)
		pt.alive = make([]bool, n)
	}
	pt.baseCross = pt.baseCross[:n*n]
	useRows := n <= 64
	if useRows {
		if cap(pt.baseRows) < n {
			pt.baseRows = make([]uint64, n)
			pt.rows = make([]uint64, n)
		}
		pt.baseRows = pt.baseRows[:n]
		clear(pt.baseRows)
	}
	ids := d.IDs()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := doi(ids[i], ids[j])
			pt.baseCross[i*n+j] = l
			if useRows && l > 0 {
				pt.baseRows[i] |= 1 << j
				pt.baseRows[j] |= 1 << i
			}
		}
	}
	for iter := 0; iter < randCnt; iter++ {
		considerNormalized(pt.randomMerge(doi, maxPart))
	}

	if bestSoln == nil {
		// Nothing feasible (e.g. StateCnt < 2|d|): fall back to
		// singletons regardless, which is the least stateful option.
		return Singletons(d)
	}
	return bestSoln
}

// randomMerge runs one randomized merging pass from the precomputed
// singleton start state, using the Partitioner's scratch buffers. The
// returned partition is in Normalize form by construction — merges fold
// the higher-membered part into the lower one, so surviving parts stay
// ordered by smallest member — and aliases scratch that the next restart
// overwrites; callers must copy what they keep.
func (pt *refPartitioner) randomMerge(doi DoiFunc, maxPart int) Partition {
	parts := append(pt.parts[:0], pt.singles...)
	pt.parts = parts
	states := len(parts) * 2
	// cross[i*n+j] caches the cross loss of parts i and j, seeded from
	// the shared singleton matrix.
	n := len(parts)
	cross := append(pt.cross[:0], pt.baseCross...)
	pt.cross = cross
	get := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return cross[i*n+j]
	}
	alive := pt.alive[:n]
	for i := range alive {
		alive[i] = true
	}
	// With n ≤ 64 parts, each part carries a bitmask of its positive-loss
	// partners, so the per-round candidate scan touches only interacting
	// pairs instead of all n²/2 — losses are sums of non-negative doi, so
	// positivity is monotone under merging and the masks just OR.
	useRows := n <= 64
	var aliveMask uint64
	var rows []uint64
	if useRows {
		rows = append(pt.rows[:0], pt.baseRows...)
		pt.rows = rows
		if n == 64 {
			aliveMask = ^uint64(0)
		} else {
			aliveMask = 1<<n - 1
		}
	}

	for {
		candidates := pt.edges[:0]
		onlySingles := false
		addEdge := func(i, j int, l float64) {
			si, sj := parts[i].Len(), parts[j].Len()
			if si+sj > maxPart {
				return
			}
			if pt.StateCnt > 0 {
				newStates := states - (1 << si) - (1 << sj) + (1 << (si + sj))
				if newStates > pt.StateCnt {
					return
				}
			}
			e := refEdge{i: i, j: j, loss: l}
			if si == 1 && sj == 1 {
				e.weight = l
				if !onlySingles {
					onlySingles = true
					candidates = candidates[:0]
				}
				candidates = append(candidates, e)
			} else if !onlySingles {
				denom := float64(int(1)<<(si+sj) - int(1)<<si - int(1)<<sj)
				e.weight = l / denom
				candidates = append(candidates, e)
			}
		}
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			if useRows {
				for m := rows[i] & aliveMask & (^uint64(0) << (i + 1)); m != 0; m &= m - 1 {
					j := bits.TrailingZeros64(m)
					addEdge(i, j, get(i, j))
				}
			} else {
				for j := i + 1; j < n; j++ {
					if !alive[j] {
						continue
					}
					if l := get(i, j); l > 0 {
						addEdge(i, j, l)
					}
				}
			}
		}
		pt.edges = candidates
		if len(candidates) == 0 {
			break
		}
		pick := refWeightedPick(candidates, pt.Rand)
		i, j := candidates[pick].i, candidates[pick].j
		// Merge j into i.
		si, sj := parts[i].Len(), parts[j].Len()
		states += (1 << (si + sj)) - (1 << si) - (1 << sj)
		parts[i] = parts[i].Union(parts[j])
		alive[j] = false
		for k := 0; k < n; k++ {
			if k == i || !alive[k] {
				continue
			}
			merged := get(i, k) + get(j, k)
			if k < i {
				cross[k*n+i] = merged
			} else {
				cross[i*n+k] = merged
			}
		}
		if useRows {
			aliveMask &^= 1 << j
			rows[i] = (rows[i] | rows[j]) &^ (1<<i | 1<<j)
			for m := rows[j] & aliveMask &^ (1 << i); m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				rows[k] = rows[k]&^(1<<j) | 1<<i
			}
		}
	}

	out := pt.out[:0]
	for i := 0; i < n; i++ {
		if alive[i] {
			out = append(out, parts[i])
		}
	}
	pt.out = out
	return Partition(out)
}

// refEdge is a candidate merge of two parts during randomized search.
type refEdge struct {
	i, j   int
	loss   float64
	weight float64
}

// refWeightedPick selects an element index with probability proportional to
// its weight.
func refWeightedPick(edges []refEdge, rng rngSource) int {
	total := 0.0
	for _, e := range edges {
		total += e.weight
	}
	if total <= 0 {
		return 0
	}
	r := rng.Float64() * total
	acc := 0.0
	for k, e := range edges {
		acc += e.weight
		if r < acc {
			return k
		}
	}
	return len(edges) - 1
}
