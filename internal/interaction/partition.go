package interaction

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/index"
)

// Partition is a disjoint decomposition of a candidate index set into
// parts. Indices within a part may interact; indices across parts are
// treated as independent (equation 2.1 of the paper).
type Partition []index.Set

// Normalize returns the partition with empty parts dropped and parts
// ordered by their smallest member, for deterministic comparison.
func (p Partition) Normalize() Partition {
	var out Partition
	for _, part := range p {
		if !part.Empty() {
			out = append(out, part)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].First() < out[j].First()
	})
	return out
}

// Equal reports whether two partitions contain the same parts.
func (p Partition) Equal(q Partition) bool {
	return p.Normalize().EqualNormalized(q.Normalize())
}

// EqualNormalized reports whether two already-normalized partitions
// contain the same parts. Both receivers must be Normalize outputs
// (non-empty parts ordered by smallest member); under that precondition
// it performs no sorting and no copies. WFIT asks this question once per
// statement against its stored (always-normalized) partition, where
// Equal's double re-normalization was pure overhead.
func (p Partition) EqualNormalized(q Partition) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if !p[i].Equal(q[i]) {
			return false
		}
	}
	return true
}

// Union returns all indices covered by the partition.
func (p Partition) Union() index.Set {
	u := index.EmptySet
	for _, part := range p {
		u = u.Union(part)
	}
	return u
}

// States returns Σ 2^|Pk|, the configuration count WFIT must track.
func (p Partition) States() int {
	total := 0
	for _, part := range p {
		total += 1 << part.Len()
	}
	return total
}

// MaxPartSize returns the size of the largest part (cmax in Theorem 4.3).
func (p Partition) MaxPartSize() int {
	m := 0
	for _, part := range p {
		if part.Len() > m {
			m = part.Len()
		}
	}
	return m
}

// PartOf returns the part containing id, or the empty set.
func (p Partition) PartOf(id index.ID) index.Set {
	for _, part := range p {
		if part.Contains(id) {
			return part
		}
	}
	return index.EmptySet
}

// Validate checks that parts are disjoint and non-empty.
func (p Partition) Validate() bool {
	seen := make(map[index.ID]bool)
	for _, part := range p {
		if part.Empty() {
			return false
		}
		ok := true
		part.Each(func(id index.ID) {
			if seen[id] {
				ok = false
			}
			seen[id] = true
		})
		if !ok {
			return false
		}
	}
	return true
}

// DoiFunc reports the (current) degree of interaction of an index pair,
// zero for a pair that does not interact.
type DoiFunc func(a, b index.ID) float64

// Loss returns the total doi mass across part boundaries — the error the
// partition introduces in the decomposed cost formula (2.1). Choose sums
// the same terms in the same order from its pair matrix
// (Partitioner.loss), so the two agree bit for bit when doi is zero
// outside Choose's pair list.
func (p Partition) Loss(doi DoiFunc) float64 {
	total := 0.0
	for i := 0; i < len(p); i++ {
		pi := p[i]
		for j := i + 1; j < len(p); j++ {
			pj := p[j]
			for x := 0; x < pi.Len(); x++ {
				a := pi.At(x)
				for y := 0; y < pj.Len(); y++ {
					total += doi(a, pj.At(y))
				}
			}
		}
	}
	return total
}

// Singletons returns the full-independence partition of ids, already in
// Normalize form (ids iterate in ascending order).
func Singletons(ids index.Set) Partition {
	var out Partition
	ids.Each(func(id index.ID) {
		out = append(out, index.NewSet(id))
	})
	return out
}

// rngSource is the minimal random interface the partitioner needs,
// satisfied by *rand.Rand.
type rngSource interface {
	Float64() float64
}

// Partitioner implements choosePartition (Figure 7): a randomized search
// for a feasible partition (Σ 2^|Pk| ≤ StateCnt, parts ≤ MaxPartSize)
// minimizing the cross-part interaction loss. A Partitioner is not safe
// for concurrent use: besides the random source, it keeps scratch
// buffers that Choose reuses across calls — WFIT calls it once per
// statement, on the serialized apply path.
//
// The search works on positions in the candidate set d (ascending ID
// order). The interacting pairs fill the singleton cross-loss matrix;
// every candidate partition is scored from that matrix, and a merge round
// touches only parts with an interacting partner. A part is named by its
// slot, the position of its smallest member, and its members are only
// materialized as index sets for a partition that is kept.
type Partitioner struct {
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
	ids      []index.ID
	base     []float64 // n×n singleton cross-loss matrix, both halves
	cross    []float64 // one restart's cross-loss matrix between slots
	words    int       // uint64 words per bitset
	baseRows []uint64  // per position: bitset of positive-loss partners
	rows     []uint64  // one restart's partner bitsets, per slot
	baseLive []uint64  // positions with a positive-loss partner
	live     []uint64  // alive slots whose partner bitset may be non-empty
	size     []int     // part size per slot
	parent   []int     // the slot a merged slot was folded into
	rank     []int     // part number of each position
	members  []int     // positions grouped by part, ascending within one
	starts   []int     // members[starts[p]:starts[p+1]] is part p
	edges    []mergeEdge

	// singles lists the position pairs with a positive loss, in (i, j)
	// order and weighted by that loss: the singleton phase of every
	// restart of one Choose draws from it. singlesTotal is the left fold
	// of their weights.
	singles      []mergeEdge
	singlesTotal float64
}

// Choose computes a feasible partition of d, seeded by the current
// partition, minimizing the loss under pairs: d's pairs with a positive
// doi, in ascending (A, B) order with A < B (InteractionStats.AppendPairs
// lists them so). Every other pair of d has doi zero. The result is always
// in Normalize form, so callers may compare it with EqualNormalized.
func (pt *Partitioner) Choose(d index.Set, current Partition, pairs []PairDoi) Partition {
	maxPart := pt.MaxPartSize
	if maxPart <= 0 {
		maxPart = 20
	}
	pt.load(d, pairs)
	n := len(pt.ids)

	var best Partition
	bestLoss := math.Inf(1)

	// Baseline: the current partition restricted to d, plus singletons
	// for new indices, in that part order.
	rank := pt.rank
	for x := range rank {
		rank[x] = -1
	}
	parts := 0
	for _, part := range current {
		kept := false
		for k := 0; k < part.Len(); k++ {
			if x, ok := slices.BinarySearch(pt.ids, part.At(k)); ok {
				rank[x] = parts
				kept = true
			}
		}
		if kept {
			parts++
		}
	}
	for x := 0; x < n; x++ {
		if rank[x] < 0 {
			rank[x] = parts
			parts++
		}
	}
	pt.group(parts)
	if l, ok := pt.score(maxPart, bestLoss); ok {
		bestLoss, best = l, pt.partition().Normalize()
	}

	// Randomized merge restarts, all growing from the singleton start
	// state. Their output is in Normalize form by construction: slots
	// ascend and a part's slot is its smallest member.
	randCnt := pt.RandCnt
	if randCnt <= 0 {
		randCnt = 8
	}
	for iter := 0; iter < randCnt; iter++ {
		pt.group(pt.randomMerge(maxPart))
		if l, ok := pt.score(maxPart, bestLoss); ok {
			bestLoss, best = l, pt.partition()
		}
	}

	if best == nil {
		// Nothing feasible (e.g. StateCnt < 2|d|): fall back to
		// singletons regardless, which is the least stateful option.
		return Singletons(d)
	}
	return best
}

// load sizes the scratch for d and fills the singleton cross-loss matrix,
// the partner bitsets and the singleton merge list from d's interacting
// pairs. It panics on a list Choose does not accept.
func (pt *Partitioner) load(d index.Set, pairs []PairDoi) {
	n := d.Len()
	pt.ids = pt.ids[:0]
	for k := 0; k < n; k++ {
		pt.ids = append(pt.ids, d.At(k))
	}
	words := (n + 63) >> 6
	pt.words = words
	pt.base = resize(pt.base, n*n)
	pt.baseRows = resize(pt.baseRows, n*words)
	pt.baseLive = resize(pt.baseLive, words)
	pt.size = resize(pt.size, n)
	pt.parent = resize(pt.parent, n)
	pt.rank = resize(pt.rank, n)
	pt.members = resize(pt.members, n)
	clear(pt.base)
	clear(pt.baseRows)
	clear(pt.baseLive)
	pt.singles, pt.singlesTotal = pt.singles[:0], 0
	pi, pj := -1, -1
	for _, p := range pairs {
		i, iok := slices.BinarySearch(pt.ids, p.A)
		j, jok := slices.BinarySearch(pt.ids, p.B)
		if !iok || !jok || i >= j || i < pi || i == pi && j <= pj || !(p.Doi > 0) {
			panic("interaction: Choose needs pairs of d with a positive doi, ascending by (A, B) with A < B")
		}
		pi, pj = i, j
		l := p.Doi
		pt.base[i*n+j], pt.base[j*n+i] = l, l
		pt.baseRows[i*words+j>>6] |= 1 << (j & 63)
		pt.baseRows[j*words+i>>6] |= 1 << (i & 63)
		pt.baseLive[i>>6] |= 1 << (i & 63)
		pt.baseLive[j>>6] |= 1 << (j & 63)
		pt.singles = append(pt.singles, mergeEdge{i: i, j: j, weight: l})
		pt.singlesTotal += l
	}
}

// randomMerge runs one randomized merging pass from the singleton start
// state: each round lists every feasible merge of two interacting parts,
// in (slot, slot) order, and draws one with probability proportional to
// its weight — interaction loss, normalized by the state cost of the
// merge, with singleton pairs preferred. It leaves the resulting parts
// in pt.rank, numbered in slot order, and returns their count.
func (pt *Partitioner) randomMerge(maxPart int) int {
	n, words := len(pt.ids), pt.words
	cross := append(pt.cross[:0], pt.base...)
	rows := append(pt.rows[:0], pt.baseRows...)
	live := append(pt.live[:0], pt.baseLive...)
	pt.cross, pt.rows, pt.live = cross, rows, live
	size, parent := pt.size, pt.parent
	for x := range size {
		size[x], parent[x] = 1, x
	}
	states := 2 * n

	// Singleton phase. While two interacting singletons remain, a round
	// offers exactly those pairs, weighted by their loss. Merging two
	// singletons leaves states at 2n, so the pairs are all feasible or
	// all infeasible for the whole phase, and the loss between two
	// singletons is still the base loss. Each round's list is therefore
	// pt.singles without the pairs that touch a merged slot, in the same
	// order and with the same weights. One pass drops those pairs and sums
	// the survivors' weights in list order, which is the left fold the
	// next draw needs. When the pairs are infeasible, the general loop
	// below drops them all without a merge.
	if maxPart >= 2 && (pt.StateCnt <= 0 || states <= pt.StateCnt) {
		edges, total := append(pt.edges[:0], pt.singles...), pt.singlesTotal
		for len(edges) > 0 {
			e := edges[pick(edges, total, pt.Rand)]
			pt.merge(e.i, e.j)
			kept := edges[:0]
			total = 0
			for _, f := range edges {
				if f.i != e.i && f.i != e.j && f.j != e.i && f.j != e.j {
					kept = append(kept, f)
					total += f.weight
				}
			}
			edges = kept
		}
		pt.edges = edges
	}

	// General phase. A merge only creates parts of size 2 or more, so no
	// two singletons interact here, and every merge has a positive state
	// cost to normalize by.
	for {
		// Losses are sums of non-negative doi, so an interacting pair
		// stays interacting under merging: the partner bitsets just OR,
		// and only slots in live can contribute an edge. A pair found
		// infeasible leaves the bitsets, and with it every later pair of
		// parts that contain it; the cross loss of such pairs is never
		// read again.
		edges, total := pt.edges[:0], 0.0
		for w, lw := range live {
			for ; lw != 0; lw &= lw - 1 {
				i := w<<6 | bits.TrailingZeros64(lw)
				si := size[i]
				row := rows[i*words : (i+1)*words]
				for v := (i + 1) >> 6; v < words; v++ {
					m := row[v]
					if v == (i+1)>>6 {
						m &= ^uint64(0) << ((i + 1) & 63)
					}
					for ; m != 0; m &= m - 1 {
						j := v<<6 | bits.TrailingZeros64(m)
						sj := size[j]
						if si+sj > maxPart || pt.StateCnt > 0 && states-(1<<si)-(1<<sj)+(1<<(si+sj)) > pt.StateCnt {
							// Parts only grow and states only rise, so
							// no later merge of parts containing these two
							// is feasible either: drop the pair for good.
							row[v] &^= 1 << (j & 63)
							rows[j*words+i>>6] &^= 1 << (i & 63)
							continue
						}
						denom := float64(int(1)<<(si+sj) - int(1)<<si - int(1)<<sj)
						e := mergeEdge{i: i, j: j, weight: cross[i*n+j] / denom}
						edges = append(edges, e)
						total += e.weight
					}
				}
			}
		}
		pt.edges = edges
		if len(edges) == 0 {
			break
		}
		e := edges[pick(edges, total, pt.Rand)]
		si, sj := size[e.i], size[e.j]
		states += (1 << (si + sj)) - (1 << si) - (1 << sj)
		pt.merge(e.i, e.j)
	}

	// Number the surviving slots in order; a merged slot's parent is a
	// smaller slot, so one ascending pass resolves every position.
	parts := 0
	for x := 0; x < n; x++ {
		if parent[x] == x {
			pt.rank[x] = parts
			parts++
		} else {
			pt.rank[x] = pt.rank[parent[x]]
		}
	}
	return parts
}

// merge folds slot j into slot i. Only j's partners change their loss to
// i: any other slot's loss to j is zero, or its pair with j was dropped.
func (pt *Partitioner) merge(i, j int) {
	n, words := len(pt.ids), pt.words
	cross, rows, live := pt.cross, pt.rows, pt.live
	pt.size[i] += pt.size[j]
	pt.parent[j] = i
	rowI, rowJ := rows[i*words:(i+1)*words], rows[j*words:(j+1)*words]
	for v, m := range rowJ {
		for ; m != 0; m &= m - 1 {
			k := v<<6 | bits.TrailingZeros64(m)
			if k == i {
				continue
			}
			l := cross[i*n+k] + cross[j*n+k]
			cross[i*n+k], cross[k*n+i] = l, l
			rows[k*words+j>>6] &^= 1 << (j & 63)
			rows[k*words+i>>6] |= 1 << (i & 63)
		}
		rowI[v] |= rowJ[v]
	}
	rowI[i>>6] &^= 1 << (i & 63)
	rowI[j>>6] &^= 1 << (j & 63)
	live[j>>6] &^= 1 << (j & 63)
	if !slices.ContainsFunc(rowI, func(m uint64) bool { return m != 0 }) {
		live[i>>6] &^= 1 << (i & 63)
	}
}

// group lists the positions of parts parts, numbered by pt.rank, in part
// order and ascending within each part (a counting sort).
func (pt *Partitioner) group(parts int) {
	starts := resize(pt.starts, parts+2)
	clear(starts)
	for _, p := range pt.rank {
		starts[p+2]++
	}
	for p := 2; p < len(starts); p++ {
		starts[p] += starts[p-1]
	}
	for x, p := range pt.rank {
		pt.members[starts[p+1]] = x
		starts[p+1]++
	}
	pt.starts = starts[:parts+1]
}

// score reports the grouped partition's loss when it is feasible and the
// loss is below limit.
func (pt *Partitioner) score(maxPart int, limit float64) (float64, bool) {
	states := 0
	for p := 0; p+1 < len(pt.starts); p++ {
		s := pt.starts[p+1] - pt.starts[p]
		if s > maxPart {
			return 0, false
		}
		states += 1 << s
	}
	if pt.StateCnt > 0 && states > pt.StateCnt {
		return 0, false
	}
	l := pt.loss(limit)
	return l, l < limit
}

// loss sums the grouped partition's cross-part doi from the singleton
// matrix in Partition.Loss's order — parts in order, members ascending —
// so it equals Loss bit for bit. Terms are non-negative, so the sum stops
// once it reaches limit.
func (pt *Partitioner) loss(limit float64) float64 {
	n := len(pt.ids)
	total := 0.0
	for p := 0; p+1 < len(pt.starts); p++ {
		mp := pt.members[pt.starts[p]:pt.starts[p+1]]
		for q := p + 1; q+1 < len(pt.starts); q++ {
			mq := pt.members[pt.starts[q]:pt.starts[q+1]]
			for _, x := range mp {
				row := pt.base[x*n : x*n+n]
				for _, y := range mq {
					total += row[y]
				}
			}
		}
		if total >= limit {
			break
		}
	}
	return total
}

// partition materializes the grouped parts as index sets.
func (pt *Partitioner) partition() Partition {
	out := make(Partition, len(pt.starts)-1)
	var ids []index.ID
	for p := range out {
		ids = ids[:0]
		for _, x := range pt.members[pt.starts[p]:pt.starts[p+1]] {
			ids = append(ids, pt.ids[x])
		}
		out[p] = index.NewSet(ids...)
	}
	return out
}

// resize returns s with length n, reallocating only to grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// mergeEdge is a candidate merge of two parts during randomized search.
type mergeEdge struct {
	i, j   int
	weight float64
}

// pick selects an element index with probability proportional to its
// weight, given total, the left fold of the weights in list order.
func pick(edges []mergeEdge, total float64, rng rngSource) int {
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
