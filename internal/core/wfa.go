package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/index"
)

// MaxPartBits caps the number of candidate indices a single WFA instance
// can track (2^20 configurations ≈ 8 MB of float64 state).
const MaxPartBits = 20

// WFA is the Work Function Algorithm over one candidate set (one part of
// the stable partition), following Figure 3 of the paper. Configurations
// are bitmasks over the part's indices; the work function is an array
// indexed by mask.
//
// The update w'[S] = min_X { w[X] + cost(q,X) + δ(X,S) } runs as a
// per-coordinate min-plus relaxation over the configuration hypercube,
// which is exact because δ decomposes per index into direction-dependent
// create/drop costs. That reduces the per-statement complexity from
// O(4^n) to O(2^n · n).
//
// Two further observations keep the constant factors down. First, a
// statement's cost depends only on the part bits its plans can use (k of
// n, usually k ≪ n), so the cost stage prices one representative per
// coset — 2^k probes broadcast over 2^(n−k) untouched-bit cosets —
// instead of probing all 2^n configurations. Second, δ(·, R) for a fixed
// R is additive per differing bit, so the score and feedback stages fill
// a δ table with one addition per configuration (fillDeltaTable) instead
// of an O(n) bit walk per configuration. Every scratch buffer is
// allocated once at construction and reused across statements.
type WFA struct {
	reg  *index.Registry
	cand []index.ID       // part members, ascending; bit i = cand[i]
	pos  map[index.ID]int // index ID -> bit position

	candSet index.Set // the part as a set (immutable, shared with callers)

	create []float64 // δ+ per bit
	drop   []float64 // δ− per bit

	w       []float64 // work function, offset by -base (see below)
	base    float64   // cumulative normalization offset
	currRec uint32    // current recommendation mask

	// scratch buffers reused across statements (zero steady-state
	// allocation on the analysis path)
	v         []float64 // stage-1 values w[X] + cost(q, X)
	d         []float64 // δ table for the score stage
	d2        []float64 // second δ table, feedback only (lazily sized)
	c0, c1    []float64 // per-bit contributions feeding fillDeltaTable
	probeBits []uint32  // id→coster-bit translation handed to CostProbe
}

// newWFAShell allocates a WFA for the given part with every buffer sized
// but the work function unfilled; callers must initialize w, currRec and
// normalize. Split out so the repartition path can fill w directly in
// mask space without paying for (and then overwriting) the δ(S0, ·)
// initialization.
func newWFAShell(reg *index.Registry, part index.Set) *WFA {
	n := part.Len()
	if n > MaxPartBits {
		panic(fmt.Sprintf("core: part of %d indices exceeds MaxPartBits=%d", n, MaxPartBits))
	}
	a := &WFA{
		reg:     reg,
		cand:    part.IDs(),
		candSet: part,
		pos:     make(map[index.ID]int, n),
	}
	for i, id := range a.cand {
		a.pos[id] = i
		def := reg.Get(id)
		a.create = append(a.create, def.CreateCost)
		a.drop = append(a.drop, def.DropCost)
	}
	size := 1 << n
	a.w = make([]float64, size)
	a.v = make([]float64, size)
	a.d = make([]float64, size)
	a.c0 = make([]float64, n)
	a.c1 = make([]float64, n)
	a.probeBits = make([]uint32, n)
	return a
}

// NewWFA creates a WFA instance for the given candidate part, with the
// initial materialized configuration init (intersected with the part, per
// the WFA+ initialization). The work function starts at w0(S) = δ(S0, S).
func NewWFA(reg *index.Registry, part index.Set, init index.Set) *WFA {
	a := newWFAShell(reg, part)
	s0 := a.MaskOf(init)
	a.currRec = s0
	// w0(S) = δ(S0, S): a bit in S0 missing from S costs its drop, a bit
	// in S missing from S0 its creation.
	for i := range a.cand {
		if s0&(1<<i) != 0 {
			a.c0[i], a.c1[i] = a.drop[i], 0
		} else {
			a.c0[i], a.c1[i] = 0, a.create[i]
		}
	}
	fillDeltaTable(a.w, a.c0, a.c1)
	return a
}

// Candidates returns the part this instance is responsible for.
func (a *WFA) Candidates() index.Set { return a.candSet }

// remapIDs renames the part's members through a registry compaction
// remap. The remap is monotone, so relative bit positions — and with
// them the work-function table, the recommendation mask, and the
// create/drop vectors — are all unchanged; only the member names and the
// id→bit map need rewriting.
func (a *WFA) remapIDs(remap []index.ID) {
	for i, id := range a.cand {
		nid := remap[id]
		if nid == index.Invalid {
			panic("core: WFA part member dropped by compaction")
		}
		a.cand[i] = nid
	}
	a.pos = make(map[index.ID]int, len(a.cand))
	for i, id := range a.cand {
		a.pos[id] = i
	}
	a.candSet = index.NewSet(a.cand...)
}

// Size returns the number of tracked configurations (2^|part|).
func (a *WFA) Size() int { return len(a.w) }

// MaskOf converts a set to this part's bitmask (ignoring non-members).
func (a *WFA) MaskOf(s index.Set) uint32 {
	var m uint32
	s.Each(func(id index.ID) {
		if p, ok := a.pos[id]; ok {
			m |= 1 << p
		}
	})
	return m
}

// SetOf converts a bitmask back to an index set.
func (a *WFA) SetOf(mask uint32) index.Set {
	var ids []index.ID
	for i := 0; i < len(a.cand); i++ {
		if mask&(1<<i) != 0 {
			ids = append(ids, a.cand[i])
		}
	}
	return index.NewSet(ids...)
}

// deltaMask computes δ(from, to) within the part. The analysis loop uses
// δ tables (fillDeltaTable) instead; this per-pair form remains for
// one-off probes and as the reference the differential tests compare
// those tables against.
func (a *WFA) deltaMask(from, to uint32) float64 {
	diff := from ^ to
	var total float64
	for i := 0; diff != 0; i++ {
		bit := uint32(1) << i
		if diff&bit == 0 {
			continue
		}
		if to&bit != 0 {
			total += a.create[i]
		} else {
			total += a.drop[i]
		}
		diff &^= bit
	}
	return total
}

// fillDeltaTable fills d[s] = Σ_i (bit i of s ? c1[i] : c0[i]) for every
// mask s, with the terms summed left-to-right in ascending bit order —
// exactly the association deltaMask uses, so table entries are
// bit-identical to per-configuration deltaMask calls (x + 0.0 == x for
// the non-negative sums involved). One addition per table slot: O(2^n)
// total where the per-configuration walks cost O(2^n · n).
func fillDeltaTable(d []float64, c0, c1 []float64) {
	d[0] = 0
	for i, lo := range c0 {
		hi := c1[i]
		bit := 1 << i
		for s := 0; s < bit; s++ {
			d[s|bit] = d[s] + hi
			d[s] += lo
		}
	}
}

// Recommend returns the current recommendation as an index set.
func (a *WFA) Recommend() index.Set { return a.SetOf(a.currRec) }

// RecommendMask returns the current recommendation bitmask.
func (a *WFA) RecommendMask() uint32 { return a.currRec }

// WorkValue returns the normalized work function value of cfg. Values are
// shifted by a per-instance constant (see Normalize); only differences are
// meaningful, which is all any consumer (scores, feedback, repartition)
// needs.
func (a *WFA) WorkValue(cfg index.Set) float64 { return a.w[a.MaskOf(cfg)] }

// TrueWorkValue returns the unnormalized work function value, for
// diagnostics and the Lemma A.1 property tests.
func (a *WFA) TrueWorkValue(cfg index.Set) float64 {
	return a.w[a.MaskOf(cfg)] + a.base
}

// AnalyzeStatement implements WFA.analyzeQuery (Figure 3): update the work
// function with the statement's cost, then re-select the recommendation by
// minimal score among configurations whose work-function path ends at
// themselves (p-membership), with deterministic tie-breaking. When sc
// offers the MaskCoster fast path (IBGs do), configurations are priced as
// raw masks — and only one per coset of the statement's relevant bits —
// skipping both the set materialization and the redundant probes.
func (a *WFA) AnalyzeStatement(sc StatementCost) {
	if mc, ok := sc.(MaskCoster); ok {
		probe, relevant := mc.CostProbe(a.cand, a.probeBits)
		a.analyzeMask(probe, relevant)
		return
	}
	a.analyze(func(cfg index.Set) float64 { return sc.Cost(cfg) })
}

// AnalyzeWithCost is AnalyzeStatement with a bare cost function, used by
// tests and by callers that already closed over a statement.
func (a *WFA) AnalyzeWithCost(costFn func(cfg index.Set) float64) {
	a.analyze(costFn)
}

func (a *WFA) analyze(costFn func(cfg index.Set) float64) {
	// No projection information: treat every bit as relevant.
	full := uint32(len(a.w) - 1)
	a.analyzeMask(func(m uint32) float64 { return costFn(a.SetOf(m)) }, full)
}

// analyzeMask runs one work-function update against a mask-space probe.
// relevant marks the bits the probe can observe: costFn(m) must equal
// costFn(m & relevant) for every mask, which holds for IBG probes because
// indices outside the graph's used union never change a plan.
func (a *WFA) analyzeMask(costFn func(mask uint32) float64, relevant uint32) {
	size := len(a.w)
	n := len(a.cand)
	full := uint32(size - 1)
	rel := relevant & full
	irr := full &^ rel

	// Stage 1a: v[X] = w[X] + cost(q, X). The cost is constant across
	// each coset of the irrelevant bits, so evaluate the 2^k distinct
	// costs once (k = |rel|) and broadcast each across its 2^(n−k)
	// untouched-bit coset — the probe, its bit remap, and the table load
	// run 2^k times instead of 2^n.
	if irr == 0 {
		for s := 0; s < size; s++ {
			a.v[s] = a.w[s] + costFn(uint32(s))
		}
	} else {
		r := uint32(0)
		for {
			c := costFn(r)
			q := uint32(0)
			for {
				s := r | q
				a.v[s] = a.w[s] + c
				q = (q - irr) & irr
				if q == 0 {
					break
				}
			}
			r = (r - rel) & rel
			if r == 0 {
				break
			}
		}
	}

	// Stage 1b: w'[S] = min_X v[X] + δ(X, S), via one relaxation pass per
	// coordinate. Within a pass, S0 = S without the bit and S1 = with it:
	// creating costs δ+, dropping costs δ−.
	copy(a.w, a.v)
	for i := 0; i < n; i++ {
		bit := 1 << i
		step := bit << 1
		ci, di := a.create[i], a.drop[i]
		for base := 0; base < size; base += step {
			for s0 := base; s0 < base+bit; s0++ {
				s1 := s0 | bit
				w1 := a.w[s1]
				if c := a.w[s0] + ci; c < w1 {
					w1 = c
					a.w[s1] = c
				}
				if c := w1 + di; c < a.w[s0] {
					a.w[s0] = c
				}
			}
		}
	}

	// Stage 2: scores and recommendation. The score of S is
	// w'[S] + δ(S, currRec); δ(·, currRec) is additive per bit, so one
	// O(2^n) table fill replaces an O(n) bit walk per configuration.
	// p-membership means the minimal path for S performs no transition
	// after the statement: w'[S] = v[S].
	for i := 0; i < n; i++ {
		if a.currRec&(1<<i) != 0 {
			a.c0[i], a.c1[i] = a.create[i], 0
		} else {
			a.c0[i], a.c1[i] = 0, a.drop[i]
		}
	}
	fillDeltaTable(a.d, a.c0, a.c1)

	minScore := math.Inf(1)
	for s := 0; s < size; s++ {
		if sc := a.w[s] + a.d[s]; sc < minScore {
			minScore = sc
		}
	}
	eps := scoreEps(minScore)
	best := int32(-1)
	bestIsP := false
	for s := 0; s < size; s++ {
		sc := a.w[s] + a.d[s]
		if sc > minScore+eps {
			continue
		}
		isP := a.w[s] >= a.v[s]-eps // w' ≤ v always holds; equality = p-member
		if best < 0 {
			best, bestIsP = int32(s), isP
			continue
		}
		// Tie-break order: p-membership first (the paper's explicit
		// constraint), then a coordinate-wise rule in the spirit of the
		// appendix's lexicographic preference: prefer the configuration
		// that agrees with the current recommendation on the lowest
		// differing index. This rule keeps recommendations stable under
		// uniform cost shifts and decomposes exactly across stable
		// partition parts, which is what Theorem 4.2 requires.
		if isP != bestIsP {
			if isP {
				best, bestIsP = int32(s), true
			}
			continue
		}
		if preferMask(uint32(s), uint32(best), a.currRec) {
			best, bestIsP = int32(s), isP
		}
	}
	a.currRec = uint32(best)

	a.normalize()
}

// normalize shifts the work function so its minimum is zero, accumulating
// the shift in base. Uniform shifts never change scores, feedback deltas,
// or repartition merges, but they keep 1600-statement runs well inside
// float64 precision.
func (a *WFA) normalize() {
	min := a.w[0]
	for _, v := range a.w[1:] {
		if v < min {
			min = v
		}
	}
	if min == 0 {
		return
	}
	for i := range a.w {
		a.w[i] -= min
	}
	a.base += min
}

// Feedback applies the per-part feedback adjustment of Figure 4: force the
// recommendation consistent with the votes, then raise work-function
// values so every configuration's score respects the bound (5.1) relative
// to the new recommendation — as if the workload itself had justified the
// switch. All three δ terms the bound needs are per-bit additive given the
// vote masks, so they fill as O(2^n) tables rather than per-configuration
// bit walks.
func (a *WFA) Feedback(plus, minus index.Set) {
	plusMask := a.MaskOf(plus)
	minusMask := a.MaskOf(minus)
	if plusMask == 0 && minusMask == 0 {
		return
	}
	// Positive votes win on overlap (the recommendation update below
	// encodes exactly that), so the consistent form of S is
	// S − minusEff + plus.
	minusEff := minusMask &^ plusMask
	a.currRec = a.currRec&^minusMask | plusMask
	wRec := a.w[a.currRec]
	if a.d2 == nil {
		a.d2 = make([]float64, len(a.w))
	}
	// d[S] = δ(S, currRec).
	for i := range a.cand {
		if a.currRec&(1<<i) != 0 {
			a.c0[i], a.c1[i] = a.create[i], 0
		} else {
			a.c0[i], a.c1[i] = 0, a.drop[i]
		}
	}
	fillDeltaTable(a.d, a.c0, a.c1)
	// v[S] = δ(S, cons(S)): only vote bits S disagrees with contribute.
	for i := range a.cand {
		bit := uint32(1) << i
		switch {
		case plusMask&bit != 0:
			a.c0[i], a.c1[i] = a.create[i], 0
		case minusEff&bit != 0:
			a.c0[i], a.c1[i] = 0, a.drop[i]
		default:
			a.c0[i], a.c1[i] = 0, 0
		}
	}
	fillDeltaTable(a.v, a.c0, a.c1)
	// d2[S] = δ(cons(S), S): the same bits, transitioned the other way.
	for i := range a.cand {
		bit := uint32(1) << i
		switch {
		case plusMask&bit != 0:
			a.c0[i], a.c1[i] = a.drop[i], 0
		case minusEff&bit != 0:
			a.c0[i], a.c1[i] = 0, a.create[i]
		default:
			a.c0[i], a.c1[i] = 0, 0
		}
	}
	fillDeltaTable(a.d2, a.c0, a.c1)

	for s := range a.w {
		minDiff := a.v[s] + a.d2[s]
		diff := a.w[s] + a.d[s] - wRec
		if diff < minDiff {
			a.w[s] += minDiff - diff
		}
	}
}

// scoreEps returns the comparison tolerance for score ties, scaled to the
// magnitude of the values involved.
func scoreEps(scale float64) float64 {
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return scale * 1e-9
}

// preferMask is the deterministic score tie-break: prefer x to y iff x
// agrees with the reference configuration r on the lowest bit where x and
// y differ. With r = currRec this makes currRec itself win any tie it
// participates in, and the choice over a product of per-part candidate
// sets equals the product of per-part choices.
func preferMask(x, y, r uint32) bool {
	diff := x ^ y
	if diff == 0 {
		return false
	}
	low := diff & -diff
	return (x^r)&low == 0
}

// remapTable fills rm[s] with the translation of each part mask s into
// another WFA's bit space, given the per-bit image table img (img[i] is
// the other instance's bit for a.cand[i], or 0 when absent). Filled as a
// subset DP — one OR per slot — it is what lets repartition read old work
// functions with array lookups instead of per-configuration set algebra.
func remapTable(rm []uint32, img []uint32) {
	rm[0] = 0
	for s := 1; s < len(rm); s++ {
		rm[s] = rm[s&(s-1)] | img[bits.TrailingZeros32(uint32(s))]
	}
}
