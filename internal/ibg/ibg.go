// Package ibg implements the Index Benefit Graph of Schnaitter et al.
// (PVLDB 2(1), 2009 — reference [16] of the paper): a compact encoding of
// the what-if costs of all relevant index subsets for one statement.
//
// Each node holds a configuration Y, its optimizer cost, and the set
// used(Y) of indices the chosen plan depends on; children remove one used
// index at a time. Two structural facts make the graph useful:
//
//  1. cost(q, X) equals the cost of the node reached by walking from the
//     root and repeatedly stepping away from any used index not in X, so
//     a single optimizer call per node answers every configuration probe.
//  2. Indices that appear in no used set are cost-irrelevant, so benefit
//     and degree-of-interaction analyses only enumerate subsets of the
//     (small) union of used sets.
//
// WFIT builds one Graph per statement (line 2 of chooseCands, Figure 6)
// and serves all subsequent cost(q, X) probes — from WFA's work-function
// update, OPT's dynamic program, and the statistics maintenance — without
// further optimizer calls. After construction the graph answers probes
// with bitmask walks over the used union and a flat memo array: no
// allocation, no optimizer.
//
// Construction runs in mask space whenever the relevant candidates fit in
// 64 bits: one cost.Prepared per build prices every node from its
// configuration mask and returns the used set as a mask, so a node is two
// bitmasks and a cost, and a child drops one used bit. Larger candidate
// sets take the same algorithm over index.Set values.
//
// Because WFIT builds and discards a graph per statement, construction
// and serving are tuned for steady-state reuse: the construction scratch
// (node slab, child links, dedup maps) lives in a sync.Pool, the frozen
// form is two flat slabs instead of per-node maps, and the cost memo is
// a pooled, epoch-stamped buffer that Release returns for the next
// statement — so the analysis path performs no O(2^bits) allocation or
// initialization per statement.
//
// A statement's analysis fans out only here, where the work is big:
// BuildWorkers prices frontier waves of at least parallelWave nodes on a
// worker pool, and Statistics does so for graphs wider than exactEnumBits.
// Either way the result is byte-identical to the serial form. A frozen
// graph is safe for concurrent probing: the cost memo is filled with
// atomic writes of values that are deterministic functions of the
// (immutable) node structure. Statistics is the exception: on a graph
// wider than exactEnumBits whose memo is live it fills the whole memo in
// one walk of the graph and empties it again, so it must not overlap
// probes of the graph or another Statistics call on it. WFIT runs it
// once per graph, right after the build and before any probe.
package ibg

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/par"
	"repro/internal/stmt"
	"repro/internal/whatif"
)

// MaxNodes caps graph construction; beyond it the graph stops expanding
// and lookups degrade gracefully to the deepest reached node.
const MaxNodes = 4096

// exactEnumBits bounds the used-union size for exact benefit and doi
// enumeration; larger graphs fall back to node-derived contexts.
const exactEnumBits = 12

// memoMaxBits bounds the used-union size for the flat cost memo; wider
// graphs (which the MaxNodes cap keeps rare) fall back to uncached walks.
const memoMaxBits = 20

// maxUsedBits bounds the used union: probe masks are uint32 (see capUsed).
const maxUsedBits = 32

// parallelWave is the smallest frontier wave BuildWorkers fans out.
const parallelWave = 64

// node is one IBG vertex. Configurations and used sets are bitmasks over
// the graph's used-union (only used indices influence walks and costs).
type node struct {
	cost     float64
	cfgMask  uint32
	usedMask uint32
	children []*node // indexed by bit position in the used union; nil = leaf
}

// costMemo is a pooled probe cache. A slot is valid only when its stamp
// equals the current epoch, so a recycled buffer needs no O(2^bits)
// clearing: bumping the epoch invalidates every stale entry at once.
// (Earlier versions allocated a fresh array per statement and initialized
// every slot to an all-ones sentinel — a NaN bit pattern — which made the
// memo the single largest per-statement allocation.) The wide statistics
// pass also writes vals, without stamps and without atomics, so it must not
// overlap probes; it bumps the epoch when done (see Graph.Statistics).
type costMemo struct {
	bits  int
	epoch uint32
	vals  []uint64 // float64 bit patterns, valid iff stamped
	stamp []uint32
	// dense is the benefit/doi statistics table: every mask's cost as a
	// plain float64, filled in one pass (Graph.statsCosts) when the used
	// union fits exactEnumBits. The submask enumerations behind
	// MaxBenefit and DOI then read raw floats instead of doing an atomic
	// dance per probe. Lazily sized, pooled with the memo.
	dense []float64
}

// memoPool[b] recycles memos of 2^b slots.
var memoPool [memoMaxBits + 1]sync.Pool

func acquireMemo(bits int) *costMemo {
	if m, _ := memoPool[bits].Get().(*costMemo); m != nil {
		m.nextEpoch()
		return m
	}
	return &costMemo{
		bits:  bits,
		epoch: 1,
		vals:  make([]uint64, 1<<bits),
		stamp: make([]uint32, 1<<bits),
	}
}

// nextEpoch invalidates every slot of the memo at once.
func (m *costMemo) nextEpoch() {
	m.epoch++
	if m.epoch == 0 {
		// Stamp wraparound (once per 2^32 bumps): old stamps could
		// collide with the restarted epoch, so clear them.
		clear(m.stamp)
		m.epoch = 1
	}
}

// Graph is the index benefit graph of one statement over a candidate set.
type Graph struct {
	top       index.Set
	usedIDs   []index.ID
	usedPos   map[index.ID]int
	root      *node
	nodes     []node  // all vertices in creation (BFS) order; root first
	kids      []*node // children backing storage, sliced per parent
	truncated bool
	usedUnion index.Set
	denseOnce sync.Once // guards memo.dense fill for this graph

	// memo caches CostMask results as float64 bit patterns accessed
	// atomically, so concurrent probes are race-free: every writer stores
	// the same deterministic value. Only present when the used union is
	// small enough; nil after Release.
	memo *costMemo
}

// buildNode is the construction-time representation of a vertex. When
// top holds at most 64 indices, construction runs in mask space and a
// node is its top-space masks alone; cfg and used are set only on the
// path for larger candidate sets.
type buildNode struct {
	mask     uint64 // configuration as a bitmask over top's IDs (<= 64 indices)
	usedTop  uint64 // used set as a bitmask over top's IDs (<= 64 indices)
	cost     float64
	cfg      index.Set // configuration (more than 64 indices only)
	used     index.Set // used set (more than 64 indices only)
	key      string    // cfg as a bitmap over top's positions (more than 64 indices only)
	kidStart int32     // span into builder.links
	kidEnd   int32
}

// childLink records one parent→child edge during construction; parents
// own contiguous spans, replacing the per-node map of the original
// implementation.
type childLink struct {
	id    index.ID
	child int32
}

// builder is the pooled construction scratch: node slab, edge list, wave
// queues, and dedup maps, all reused across statements.
type builder struct {
	nodes  []buildNode
	links  []childLink
	wave   []int32
	nextWv []int32
	byMask map[uint64]int32
	byKey  map[string]int32
	keyBuf []byte // a child's key under construction (more than 64 indices only)
}

var builderPool = sync.Pool{New: func() any {
	return &builder{byMask: make(map[uint64]int32)}
}}

func (b *builder) reset() {
	b.nodes = b.nodes[:0]
	b.links = b.links[:0]
	b.wave = b.wave[:0]
	b.nextWv = b.nextWv[:0]
	clear(b.byMask)
	if b.byKey != nil {
		clear(b.byKey)
	}
}

// Build constructs the IBG of s over the candidate set, restricted to the
// indices the cost model considers relevant to s. Each node costs exactly
// one what-if optimization through opt, so a build adds NodeCount to
// opt.Calls.
func Build(opt *whatif.Optimizer, s *stmt.Statement, candidates index.Set) *Graph {
	return BuildWorkers(opt, s, candidates, 1)
}

// BuildWorkers is Build with the what-if optimizations of each wave of at
// least parallelWave nodes fanned out across up to workers goroutines
// (<= 0 means one per CPU). The frontier is expanded level-synchronously
// in the serial algorithm's FIFO order, so the produced graph — node set,
// links, truncation point — is identical to Build's for any worker count.
func BuildWorkers(opt *whatif.Optimizer, s *stmt.Statement, candidates index.Set, workers int) *Graph {
	top := opt.Model().RestrictConfig(s, candidates)
	g := &Graph{top: top}

	b := builderPool.Get().(*builder)
	b.reset()
	defer builderPool.Put(b)

	// Node lookup is by configuration identity. Configurations are
	// subsets of top, so when top is small they are bitmasks over it,
	// priced from one prepared statement; the set-valued path, keyed by
	// bitmaps over top's positions, is the fallback for oversized
	// candidate sets.
	topIDs := top.IDs()
	var prep *cost.Prepared
	if len(topIDs) <= 64 {
		prep = opt.Model().Prepare(s, topIDs)
		fullMask := uint64(1)<<len(topIDs) - 1 // a shift by 64 gives 0
		b.nodes = append(b.nodes, buildNode{mask: fullMask})
		b.byMask[fullMask] = 0
	} else {
		if b.byKey == nil {
			b.byKey = make(map[string]int32)
		}
		// The root's key has every position of top set.
		b.keyBuf = append(b.keyBuf[:0], make([]byte, (len(topIDs)+7)/8)...)
		for i := range topIDs {
			b.keyBuf[i/8] |= 1 << (i % 8)
		}
		key := string(b.keyBuf)
		b.nodes = append(b.nodes, buildNode{cfg: top, key: key})
		b.byKey[key] = 0
	}

	// costWave prices every node of a frontier wave: one independent
	// what-if optimization each.
	costWave := func(wave []int32) {
		w := workers
		if len(wave) < parallelWave {
			w = 1
		}
		par.Do(w, len(wave), func(i int) {
			n := &b.nodes[wave[i]]
			if prep != nil {
				n.cost, n.usedTop = opt.CostMask(prep, n.mask)
			} else {
				n.cost, n.used = opt.CostUsed(s, n.cfg)
			}
		})
	}
	b.wave = append(b.wave, 0)
	costWave(b.wave)

	for len(b.wave) > 0 && !g.truncated {
		b.nextWv = b.nextWv[:0]
		for _, ni := range b.wave {
			if len(b.nodes) >= MaxNodes {
				g.truncated = true
				break
			}
			kidStart := int32(len(b.links))
			if prep != nil {
				b.expandMask(ni, topIDs)
			} else {
				b.expandSet(ni, topIDs)
			}
			b.nodes[ni].kidStart, b.nodes[ni].kidEnd = kidStart, int32(len(b.links))
		}
		// Even on truncation the created children get priced: the serial
		// algorithm computes a node's cost the moment it is enqueued.
		costWave(b.nextWv)
		b.wave, b.nextWv = b.nextWv, b.wave
	}

	g.freeze(b, topIDs, prep != nil)
	return g
}

// expandMask links node ni to one child per used index, in ascending ID
// order, creating and enqueueing the children not seen yet.
func (b *builder) expandMask(ni int32, topIDs []index.ID) {
	mask := b.nodes[ni].mask
	for u := b.nodes[ni].usedTop; u != 0; u &= u - 1 {
		childMask := mask &^ (u & -u)
		child, ok := b.byMask[childMask]
		if !ok {
			child = int32(len(b.nodes))
			b.nodes = append(b.nodes, buildNode{mask: childMask})
			b.byMask[childMask] = child
			b.nextWv = append(b.nextWv, child)
		}
		b.links = append(b.links, childLink{id: topIDs[bits.TrailingZeros64(u)], child: child})
	}
}

// expandSet is expandMask for candidate sets too large for a mask. A
// child is looked up by its key, the parent's with one position cleared,
// without allocating; its key string and index.Set are built only when it
// is new.
func (b *builder) expandSet(ni int32, topIDs []index.ID) {
	// Copy the expansion inputs out: appending children may grow the node
	// slab and invalidate pointers into it.
	cfg, used, key := b.nodes[ni].cfg, b.nodes[ni].used, b.nodes[ni].key
	used.Each(func(a index.ID) {
		b.keyBuf = append(b.keyBuf[:0], key...)
		if p, ok := slices.BinarySearch(topIDs, a); ok {
			b.keyBuf[p/8] &^= 1 << (p % 8)
		}
		child, ok := b.byKey[string(b.keyBuf)]
		if !ok {
			child = int32(len(b.nodes))
			childKey := string(b.keyBuf)
			b.nodes = append(b.nodes, buildNode{cfg: cfg.Remove(a), key: childKey})
			b.byKey[childKey] = child
			b.nextWv = append(b.nextWv, child)
		}
		b.links = append(b.links, childLink{id: a, child: child})
	})
}

// freeze computes the used union (capped at maxUsedBits) and rewrites the
// construction state into the compact probe-time form: one flat node slab,
// one children slab, and (when feasible) a pooled cost memo.
func (g *Graph) freeze(b *builder, topIDs []index.ID, useMask bool) {
	if useMask {
		var unionTop uint64
		for i := range b.nodes {
			unionTop |= b.nodes[i].usedTop
		}
		ids := make([]index.ID, 0, bits.OnesCount64(unionTop))
		for m := unionTop; m != 0; m &= m - 1 {
			ids = append(ids, topIDs[bits.TrailingZeros64(m)])
		}
		g.usedUnion = index.NewSet(ids...)
	} else {
		union := index.EmptySet
		for i := range b.nodes {
			union = union.Union(b.nodes[i].used)
		}
		g.usedUnion = union
	}
	if g.usedUnion.Len() > maxUsedBits {
		g.usedUnion = capUsed(b.nodes, topIDs, useMask)
		g.truncated = true
	}
	g.usedIDs = g.usedUnion.IDs()
	g.usedPos = make(map[index.ID]int, len(g.usedIDs))
	for i, id := range g.usedIDs {
		g.usedPos[id] = i
	}

	// Translate top-space masks to used-union masks with a flat table.
	var top2union []uint32
	if useMask {
		top2union = make([]uint32, len(topIDs))
		for i, id := range topIDs {
			if p, ok := g.usedPos[id]; ok {
				top2union[i] = 1 << p
			}
		}
	}
	g.nodes = make([]node, len(b.nodes))
	parents := 0
	for i := range b.nodes {
		bn := &b.nodes[i]
		if useMask {
			g.nodes[i] = node{
				cost:     bn.cost,
				cfgMask:  projectTop(bn.mask, top2union),
				usedMask: projectTop(bn.usedTop, top2union),
			}
		} else {
			g.nodes[i] = node{
				cost:     bn.cost,
				cfgMask:  g.maskOf(bn.cfg),
				usedMask: g.maskOf(bn.used),
			}
		}
		if bn.kidEnd > bn.kidStart {
			parents++
		}
	}
	g.kids = make([]*node, parents*len(g.usedIDs))
	next := 0
	for i := range b.nodes {
		bn := &b.nodes[i]
		if bn.kidEnd <= bn.kidStart {
			continue
		}
		children := g.kids[next : next+len(g.usedIDs) : next+len(g.usedIDs)]
		next += len(g.usedIDs)
		for _, l := range b.links[bn.kidStart:bn.kidEnd] {
			if p, ok := g.usedPos[l.id]; ok {
				children[p] = &g.nodes[l.child]
			}
		}
		g.nodes[i].children = children
	}
	g.root = &g.nodes[0]

	if bits := len(g.usedIDs); bits <= memoMaxBits {
		g.memo = acquireMemo(bits)
	}
}

// capUsed keeps the first maxUsedBits used indices in node order, then ID
// order. A dropped index gets no bit and no child link, so the walk treats
// it as always present, as it does past a MaxNodes truncation.
func capUsed(nodes []buildNode, topIDs []index.ID, useMask bool) index.Set {
	kept := index.EmptySet
	keep := func(a index.ID) {
		if kept.Len() < maxUsedBits {
			kept = kept.Add(a)
		}
	}
	for i := range nodes {
		if !useMask {
			nodes[i].used.Each(keep)
			continue
		}
		for u := nodes[i].usedTop; u != 0; u &= u - 1 {
			keep(topIDs[bits.TrailingZeros64(u)])
		}
	}
	return kept
}

// Release returns the graph's pooled probe cache for reuse by a later
// graph. Call it once all probing is done (WFIT releases each
// statement's graph at the end of the analysis); probing a released
// graph is still correct but falls back to uncached walks. Long-lived
// graphs (the benchmark environment's evaluation IBGs) simply never
// release. Release must not run concurrently with probes.
func (g *Graph) Release() {
	if m := g.memo; m != nil {
		g.memo = nil
		memoPool[m.bits].Put(m)
	}
}

// projectTop translates a top-space bitmask into the used-union space
// via the per-bit image table.
func projectTop(topMask uint64, top2union []uint32) uint32 {
	var um uint32
	for m := topMask; m != 0; m &= m - 1 {
		um |= top2union[bits.TrailingZeros64(m)]
	}
	return um
}

// maskOf projects a set onto the used-union bit space.
func (g *Graph) maskOf(s index.Set) uint32 {
	var m uint32
	s.Each(func(id index.ID) {
		if p, ok := g.usedPos[id]; ok {
			m |= 1 << p
		}
	})
	return m
}

// Top returns the root configuration (all relevant candidates).
func (g *Graph) Top() index.Set { return g.top }

// NodeCount reports how many nodes (= what-if calls) the graph holds.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// Truncated reports whether construction hit MaxNodes or the used union
// was capped at maxUsedBits indices.
func (g *Graph) Truncated() bool { return g.truncated }

// UsedUnion returns the union of used sets over all nodes, capped at
// maxUsedBits indices: the indices that can influence the statement's cost.
func (g *Graph) UsedUnion() index.Set { return g.usedUnion }

// Influential returns the members of cfg that can change the statement's
// cost.
func (g *Graph) Influential(cfg index.Set) index.Set {
	return cfg.Intersect(g.usedUnion)
}

// Influences reports whether any member of cfg can change the
// statement's cost, without materializing the intersection. Together
// with Influential it makes *Graph satisfy core.StatementCost.
func (g *Graph) Influences(cfg index.Set) bool {
	return g.usedUnion.Intersects(cfg)
}

// find walks from the root to the node covering mask (used ⊆ mask).
func (g *Graph) find(mask uint32) *node {
	n := g.root
	for {
		rem := n.usedMask &^ mask
		if rem == 0 || n.children == nil {
			return n
		}
		child := n.children[bits.TrailingZeros32(rem)]
		if child == nil {
			// Truncated graph: approximate with the deepest node.
			return n
		}
		n = child
	}
}

// CostMask returns cost(q, X) for X given as a used-union mask.
func (g *Graph) CostMask(mask uint32) float64 {
	if m := g.memo; m != nil {
		if atomic.LoadUint32(&m.stamp[mask]) == m.epoch {
			return math.Float64frombits(atomic.LoadUint64(&m.vals[mask]))
		}
		v := g.find(mask).cost
		// Value first, stamp second: a reader that observes the stamp is
		// guaranteed to read a (deterministic) value. Racing writers
		// store identical bits.
		atomic.StoreUint64(&m.vals[mask], math.Float64bits(v))
		atomic.StoreUint32(&m.stamp[mask], m.epoch)
		return v
	}
	return g.find(mask).cost
}

// Cost returns cost(q, X) for any X (indices outside the used union never
// change the cost and are ignored).
func (g *Graph) Cost(x index.Set) float64 {
	return g.CostMask(g.maskOf(x))
}

// CostProbe implements core.MaskCoster: it returns a probe over bitmasks
// in the caller's own id space (bit i of the argument stands for ids[i])
// plus the mask of relevant caller bits — the ids inside the graph's used
// union, the only ones that can change the cost. xlat is caller scratch
// (len ≥ len(ids)) that carries the id→graph-bit translation, so repeated
// calls allocate nothing beyond the closure. Requires len(ids) ≤ 32.
func (g *Graph) CostProbe(ids []index.ID, xlat []uint32) (func(mask uint32) float64, uint32) {
	xlat = xlat[:len(ids)]
	var relevant uint32
	for i, id := range ids {
		if p, ok := g.usedPos[id]; ok {
			xlat[i] = 1 << p
			relevant |= 1 << i
		} else {
			xlat[i] = 0
		}
	}
	probe := func(m uint32) float64 {
		var gm uint32
		for ; m != 0; m &= m - 1 {
			gm |= xlat[bits.TrailingZeros32(m)]
		}
		return g.CostMask(gm)
	}
	return probe, relevant
}

// MaxBenefit returns max_X benefit_q({a}, X), the βn statistic of
// chooseCands. Exact over subsets of the used union when small; otherwise
// maximized over node-derived contexts.
func (g *Graph) MaxBenefit(a index.ID) float64 {
	pos, ok := g.usedPos[a]
	if !ok {
		// Never used by any plan: the index cannot improve the
		// statement. (Maintained indices on updates are part of used
		// sets, so harmful indices do not take this branch.)
		return 0
	}
	bit := uint32(1) << pos
	full := g.fullMask()
	best := math.Inf(-1)
	if dense := g.statsCosts(); dense != nil {
		forEachSubmask(full&^bit, func(ctx uint32) {
			ctx &^= bit
			if b := dense[ctx] - dense[ctx|bit]; b > best {
				best = b
			}
		})
	} else {
		visit := func(ctx uint32) {
			ctx &^= bit
			if b := g.CostMask(ctx) - g.CostMask(ctx|bit); b > best {
				best = b
			}
		}
		if len(g.usedIDs) <= exactEnumBits {
			forEachSubmask(full&^bit, visit)
		} else {
			g.visitNodeContexts(visit)
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// DOI returns the degree of interaction doi_q(a, b) =
// max_X |cost(X) − cost(X∪{a}) − cost(X∪{b}) + cost(X∪{a,b})|
// (the Section 2 definition expanded). Zero when either index is unused.
func (g *Graph) DOI(a, b index.ID) float64 {
	if a == b {
		return 0
	}
	pa, okA := g.usedPos[a]
	pb, okB := g.usedPos[b]
	if !okA || !okB {
		return 0
	}
	bitA, bitB := uint32(1)<<pa, uint32(1)<<pb
	best := 0.0
	if dense := g.statsCosts(); dense != nil {
		forEachSubmask(g.fullMask()&^(bitA|bitB), func(ctx uint32) {
			ctx &^= bitA | bitB
			v := math.Abs(dense[ctx] - dense[ctx|bitA] -
				dense[ctx|bitB] + dense[ctx|bitA|bitB])
			if v > best {
				best = v
			}
		})
	} else {
		visit := func(ctx uint32) {
			ctx &^= bitA | bitB
			v := math.Abs(g.CostMask(ctx) - g.CostMask(ctx|bitA) -
				g.CostMask(ctx|bitB) + g.CostMask(ctx|bitA|bitB))
			if v > best {
				best = v
			}
		}
		if len(g.usedIDs) <= exactEnumBits {
			forEachSubmask(g.fullMask()&^(bitA|bitB), visit)
		} else {
			g.visitNodeContexts(visit)
		}
	}
	return best
}

// statsCosts returns a dense cost table over every used-union mask —
// dense[m] == CostMask(m) — filled once per graph, or nil when the union
// exceeds exactEnumBits or the memo was released. Safe for concurrent
// use: the sync.Once fill happens-before every read. (Wider graphs with a
// live memo get their table from fillCosts, written into the memo itself
// by Statistics.)
func (g *Graph) statsCosts() []float64 {
	if len(g.usedIDs) > exactEnumBits {
		return nil
	}
	m := g.memo
	if m == nil {
		return nil
	}
	g.denseOnce.Do(func() {
		size := 1 << len(g.usedIDs)
		if cap(m.dense) < size {
			m.dense = make([]float64, size)
		}
		m.dense = m.dense[:size]
		for mask := 0; mask < size; mask++ {
			m.dense[mask] = g.find(uint32(mask)).cost
		}
	})
	return m.dense
}

// fullMask is the mask with every used-union bit set.
func (g *Graph) fullMask() uint32 {
	if len(g.usedIDs) == 32 {
		return ^uint32(0)
	}
	return (1 << len(g.usedIDs)) - 1
}

// forEachSubmask enumerates every submask of rest (including 0 and rest).
func forEachSubmask(rest uint32, visit func(uint32)) {
	m := rest
	for {
		visit(m)
		if m == 0 {
			return
		}
		m = (m - 1) & rest
	}
}

// visitNodeContexts visits each graph node's configuration mask — the
// fallback context pool when exact enumeration is infeasible. The node
// slab holds every vertex exactly once, so this is a flat scan; the
// per-call map-tracked graph walk it replaces dominated the analysis
// tail on large statements.
func (g *Graph) visitNodeContexts(visit func(uint32)) {
	for i := range g.nodes {
		visit(g.nodes[i].cfgMask)
	}
}

// Interaction is one interacting index pair with its degree.
type Interaction struct {
	A, B index.ID // A < B
	Doi  float64
}

// Interactions returns every pair of used indices with doi above the
// threshold, ordered deterministically (ascending A, then B): Statistics'
// serial form.
func (g *Graph) Interactions(threshold float64) []Interaction {
	_, out := g.Statistics(threshold, 1)
	return out
}

// Statistics returns MaxBenefit of every used index, in UsedUnion order,
// and the Interactions above threshold, each bit for bit what the
// per-index and per-pair calls return. On a graph wider than
// exactEnumBits, whose maximizations run over node contexts and are the
// analysis tail, the work fans out on up to workers goroutines (<= 0 means
// one per CPU); results are collected by index, so any worker count gives
// the same output.
//
// If that graph's memo is live (at most memoMaxBits used indices, not
// released), Statistics fills the memo with every mask's cost and reads
// it with plain loads (contextStatistics), then empties it. It must
// therefore not overlap probes of the graph or another Statistics call on
// it; run it before probing, as WFIT's analysis and the benchmark
// environment's Interactions do.
func (g *Graph) Statistics(threshold float64, workers int) (benefits []float64, interactions []Interaction) {
	n := len(g.usedIDs)
	pairs := make([][2]index.ID, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]index.ID{g.usedIDs[i], g.usedIDs[j]})
		}
	}
	benefits = make([]float64, n)
	dois := make([]float64, len(pairs))
	if n > exactEnumBits && g.memo != nil {
		g.contextStatistics(benefits, dois, workers)
	} else {
		if n <= exactEnumBits {
			workers = 1
		}
		par.Do(workers, n+len(pairs), func(k int) {
			if k < n {
				benefits[k] = g.MaxBenefit(g.usedIDs[k])
				return
			}
			p := pairs[k-n]
			dois[k-n] = g.DOI(p[0], p[1])
		})
	}
	for k, p := range pairs {
		if dois[k] > threshold {
			interactions = append(interactions, Interaction{A: p[0], B: p[1], Doi: dois[k]})
		}
	}
	return benefits, interactions
}

// statsChunk is how many node contexts make one unit of
// contextStatistics' fan-out.
const statsChunk = 256

// contextStatistics computes Statistics' benefits and dois (pairs in
// ascending bit order) over node contexts, for a graph wider than
// exactEnumBits with a live memo. It fills the memo with every mask's cost
// in one walk (fillCosts), so each term is MaxBenefit's and DOI's own
// expression over plain loads instead of CostMask probes. The node slab is
// split into contiguous chunks maximized in parallel, and the chunk maxima
// are merged in chunk order by the same strict >, which keeps the value
// the scans in node order keep, bit for bit. The stamps never saw the
// fill, so the epoch bump at the end leaves later probes an empty memo.
func (g *Graph) contextStatistics(benefits, dois []float64, workers int) {
	m := g.memo
	g.fillCosts(m.vals)
	vals := m.vals
	n := len(benefits)
	width := n + len(dois)
	chunks := (len(g.nodes) + statsChunk - 1) / statsChunk
	maxima := make([]float64, chunks*width)
	par.Do(workers, chunks, func(c int) {
		best := maxima[c*width : (c+1)*width]
		bens, ds := best[:n], best[n:]
		for i := range bens {
			bens[i] = math.Inf(-1)
		}
		for _, nd := range g.nodes[c*statsChunk : min((c+1)*statsChunk, len(g.nodes))] {
			k := 0
			for i := 0; i < n; i++ {
				bitA := uint32(1) << i
				ctx := nd.cfgMask &^ bitA
				if v := costAt(vals, ctx) - costAt(vals, ctx|bitA); v > bens[i] {
					bens[i] = v
				}
				for j := i + 1; j < n; j++ {
					bitB := uint32(1) << j
					x := nd.cfgMask &^ (bitA | bitB)
					v := math.Abs(costAt(vals, x) - costAt(vals, x|bitA) -
						costAt(vals, x|bitB) + costAt(vals, x|bitA|bitB))
					if v > ds[k] {
						ds[k] = v
					}
					k++
				}
			}
		}
	})
	for i := range benefits {
		benefits[i] = math.Inf(-1)
	}
	for c := 0; c < chunks; c++ {
		best := maxima[c*width : (c+1)*width]
		for i, v := range best[:n] {
			if v > benefits[i] {
				benefits[i] = v
			}
		}
		for k, v := range best[n:] {
			if v > dois[k] {
				dois[k] = v
			}
		}
	}
	for i, v := range benefits {
		if math.IsInf(v, -1) {
			benefits[i] = 0
		}
	}
	m.nextEpoch()
}

// costAt reads mask x's cost from a table fillCosts wrote.
func costAt(vals []uint64, x uint32) float64 {
	return math.Float64frombits(vals[x])
}

// fillCosts writes math.Float64bits(find(m).cost) into vals[m] for every
// used-union mask m, in one walk of the decisions find makes instead of
// one walk per mask. Each mask is written exactly once.
func (g *Graph) fillCosts(vals []uint64) {
	g.fillFrom(vals, g.root, 0, 0)
}

// fillFrom fills the subcube of masks that find brings to n: the masks
// that agree with present on the known bits, any subset of the free rest.
// It reads n's used bits in find's ascending order. A bit known present is
// skipped. A bit known absent is the lowest used bit every mask left
// lacks, so all of them step to its child, or stop at n when a truncated
// graph has no child there. A free bit splits the subcube: the masks
// without it step to its child (or stop at n), and the masks with it read
// on. The masks left once the used bits run out, or at a node without
// children, stop at n.
func (g *Graph) fillFrom(vals []uint64, n *node, known, present uint32) {
	if n.children != nil {
		for rest := n.usedMask; rest != 0; rest &= rest - 1 {
			bit := rest & -rest
			if present&bit != 0 {
				continue
			}
			child := n.children[bits.TrailingZeros32(bit)]
			if known&bit != 0 {
				if child == nil {
					break
				}
				g.fillFrom(vals, child, known, present)
				return
			}
			if child != nil {
				g.fillFrom(vals, child, known|bit, present)
			} else {
				fillSubcube(vals, n.cost, present, g.fullMask()&^(known|bit))
			}
			known |= bit
			present |= bit
		}
	}
	fillSubcube(vals, n.cost, present, g.fullMask()&^known)
}

// fillSubcube writes cost into vals[present|s] for every subset s of free.
func fillSubcube(vals []uint64, cost float64, present, free uint32) {
	v := math.Float64bits(cost)
	for s := free; ; s = (s - 1) & free {
		vals[present|s] = v
		if s == 0 {
			return
		}
	}
}
