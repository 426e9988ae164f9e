package interaction

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
)

func TestWindowCurrentFormula(t *testing.T) {
	w := NewWindow(10)
	// Entries at positions 3 (value 6) and 5 (value 4); evaluate at N=6.
	w.Add(3, 6)
	w.Add(5, 4)
	// ℓ=1: 4/(6−5+1) = 2; ℓ=2: (4+6)/(6−3+1) = 2.5 → max 2.5.
	if got := w.Current(6); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Current = %v, want 2.5", got)
	}
}

func TestWindowRecencyAdvantage(t *testing.T) {
	recent, stale := NewWindow(10), NewWindow(10)
	recent.Add(99, 5)
	stale.Add(1, 5)
	if recent.Current(100) <= stale.Current(100) {
		t.Fatalf("recent benefit should dominate: %v vs %v", recent.Current(100), stale.Current(100))
	}
}

func TestWindowCapExpiresOldest(t *testing.T) {
	w := NewWindow(3)
	for i := 1; i <= 5; i++ {
		w.Add(i, float64(i))
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	// Entries 3,4,5 remain.
	if got := w.Export(); !slices.Equal(got.Pos, []int{3, 4, 5}) || !slices.Equal(got.Vals, []float64{3, 4, 5}) || got.Dropped != 2 {
		t.Fatalf("retained %+v, want positions and values 3, 4, 5 with 2 dropped", got)
	}
}

func TestWindowIgnoresNonPositive(t *testing.T) {
	w := NewWindow(5)
	w.Add(1, 0)
	w.Add(2, -3)
	if w.Len() != 0 {
		t.Fatalf("non-positive values recorded")
	}
	if w.Current(10) != 0 {
		t.Fatalf("empty window Current != 0")
	}
}

func TestWindowUnbounded(t *testing.T) {
	w := NewWindow(0)
	for i := 1; i <= 500; i++ {
		w.Add(i, 1)
	}
	if w.Len() != 500 {
		t.Fatalf("unbounded window truncated: %d", w.Len())
	}
}

func TestWindowPanicsOnRegression(t *testing.T) {
	w := NewWindow(5)
	w.Add(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("position regression did not panic")
		}
	}()
	w.Add(9, 1)
}

func TestBenefitStats(t *testing.T) {
	s := NewBenefitStats(100)
	s.Add(1, 5, 10)
	s.Add(1, 6, 0) // ignored
	s.Add(2, 6, 4)
	if got := s.Current(1, 6); got <= 0 {
		t.Fatalf("Current(1) = %v", got)
	}
	if got := s.Current(3, 6); got != 0 {
		t.Fatalf("unknown index Current = %v", got)
	}
	if got := s.Export().Entries; len(got) != 2 || got[0].ID != 1 || !slices.Equal(got[0].Window.Vals, []float64{10}) {
		t.Fatalf("retained histories %+v, want index 1 with the one value 10 first", got)
	}
}

func TestInteractionStatsSymmetricKey(t *testing.T) {
	s := NewInteractionStats(100)
	s.Add(2, 1, 3, 7)
	if got := s.Current(1, 2, 4); got == 0 {
		t.Fatalf("pair lookup (1,2) missed entry recorded as (2,1)")
	}
	if got := s.Current(2, 1, 4); got != s.Current(1, 2, 4) {
		t.Fatalf("pair order changed value")
	}
	s.Add(1, 1, 5, 3) // self pair ignored
	if got := s.Export().Entries; s.Len() != 1 || len(got) != 1 || got[0].A != 1 || got[0].B != 2 {
		t.Fatalf("Len = %d, Export = %+v, want the one pair (1, 2)", s.Len(), got)
	}
}

func TestPartitionStatesAndLoss(t *testing.T) {
	p := Partition{index.NewSet(1, 2), index.NewSet(3)}
	if got := p.States(); got != 4+2 {
		t.Fatalf("States = %d, want 6", got)
	}
	doi := func(a, b index.ID) float64 {
		if MakePair(a, b) == (Pair{A: 2, B: 3}) {
			return 5
		}
		return 0
	}
	if got := p.Loss(doi); got != 5 {
		t.Fatalf("Loss = %v, want 5", got)
	}
	joined := Partition{index.NewSet(1, 2, 3)}
	if got := joined.Loss(doi); got != 0 {
		t.Fatalf("single part loss = %v, want 0", got)
	}
}

func TestPartitionValidate(t *testing.T) {
	good := Partition{index.NewSet(1), index.NewSet(2, 3)}
	if !good.Validate() {
		t.Fatalf("valid partition rejected")
	}
	overlap := Partition{index.NewSet(1, 2), index.NewSet(2, 3)}
	if overlap.Validate() {
		t.Fatalf("overlapping partition accepted")
	}
	empty := Partition{index.NewSet(1), index.EmptySet}
	if empty.Validate() {
		t.Fatalf("partition with empty part accepted")
	}
}

func TestPartitionEqualIgnoresOrder(t *testing.T) {
	a := Partition{index.NewSet(3), index.NewSet(1, 2)}
	b := Partition{index.NewSet(1, 2), index.NewSet(3)}
	if !a.Equal(b) {
		t.Fatalf("order-insensitive equality failed")
	}
	c := Partition{index.NewSet(1), index.NewSet(2, 3)}
	if a.Equal(c) {
		t.Fatalf("different partitions compared equal")
	}
}

func TestSingletons(t *testing.T) {
	p := Singletons(index.NewSet(3, 1))
	if len(p) != 2 || p.MaxPartSize() != 1 {
		t.Fatalf("Singletons = %v", p)
	}
}

// choosePartition tests.

func testDoi(pairs map[Pair]float64) DoiFunc {
	return func(a, b index.ID) float64 { return pairs[MakePair(a, b)] }
}

// pairsOf lists d's pairs with a positive doi in ascending (A, B) order,
// the input Choose takes.
func pairsOf(d index.Set, doi DoiFunc) []PairDoi {
	var out []PairDoi
	for i := 0; i < d.Len(); i++ {
		for j := i + 1; j < d.Len(); j++ {
			if v := doi(d.At(i), d.At(j)); v > 0 {
				out = append(out, PairDoi{A: d.At(i), B: d.At(j), Doi: v})
			}
		}
	}
	return out
}

func TestChoosePartitionMergesStrongInteractions(t *testing.T) {
	pt := &Partitioner{StateCnt: 100, MaxPartSize: 10, RandCnt: 8,
		Rand: rand.New(rand.NewSource(1))}
	d := index.NewSet(1, 2, 3, 4)
	doi := testDoi(map[Pair]float64{
		{1, 2}: 50,
		{3, 4}: 40,
	})
	p := pt.Choose(d, nil, pairsOf(d, doi))
	if !p.Equal(Partition{index.NewSet(1, 2), index.NewSet(3, 4)}) {
		t.Fatalf("Choose = %v", p)
	}
	if p.Loss(doi) != 0 {
		t.Fatalf("positive loss despite feasible zero-loss partition")
	}
}

func TestChoosePartitionRespectsStateBound(t *testing.T) {
	pt := &Partitioner{StateCnt: 12, MaxPartSize: 10, RandCnt: 16,
		Rand: rand.New(rand.NewSource(2))}
	// Fully connected clique of 4: unrestricted solution would be one part
	// of 16 states; the bound forces interactions to be dropped.
	d := index.NewSet(1, 2, 3, 4)
	doi := testDoi(map[Pair]float64{
		{1, 2}: 10, {1, 3}: 1, {1, 4}: 1,
		{2, 3}: 1, {2, 4}: 1, {3, 4}: 9,
	})
	p := pt.Choose(d, nil, pairsOf(d, doi))
	if p.States() > 12 {
		t.Fatalf("state bound violated: %d states in %v", p.States(), p)
	}
	if !p.Union().Equal(d) {
		t.Fatalf("partition does not cover candidates: %v", p)
	}
	// The strongest interactions should have been kept together.
	if p.PartOf(1).Equal(p.PartOf(2)) == false && p.PartOf(3).Equal(p.PartOf(4)) == false {
		t.Fatalf("both strong pairs separated: %v", p)
	}
}

func TestChoosePartitionMaxPartSize(t *testing.T) {
	pt := &Partitioner{StateCnt: 1 << 16, MaxPartSize: 2, RandCnt: 8,
		Rand: rand.New(rand.NewSource(3))}
	d := index.NewSet(1, 2, 3)
	doi := testDoi(map[Pair]float64{{1, 2}: 5, {2, 3}: 5, {1, 3}: 5})
	p := pt.Choose(d, nil, pairsOf(d, doi))
	if p.MaxPartSize() > 2 {
		t.Fatalf("part size bound violated: %v", p)
	}
}

func TestChoosePartitionInfeasibleBoundFallsBack(t *testing.T) {
	pt := &Partitioner{StateCnt: 3, MaxPartSize: 10, RandCnt: 4,
		Rand: rand.New(rand.NewSource(4))}
	// Even singletons need 2·3 = 6 > 3 states; the fallback must still
	// return a covering partition.
	d := index.NewSet(1, 2, 3)
	p := pt.Choose(d, nil, nil)
	if !p.Union().Equal(d) {
		t.Fatalf("fallback does not cover: %v", p)
	}
}

func TestChoosePartitionBaselineReuse(t *testing.T) {
	pt := &Partitioner{StateCnt: 100, MaxPartSize: 10, RandCnt: 0,
		Rand: rand.New(rand.NewSource(5))}
	current := Partition{index.NewSet(1, 2), index.NewSet(3)}
	// Candidate 3 dropped, candidate 4 added, no interactions recorded:
	// with zero random restarts the baseline (current minus dropped, plus
	// singleton for new) must win.
	d := index.NewSet(1, 2, 4)
	p := pt.Choose(d, current, pairsOf(d, testDoi(map[Pair]float64{{1, 2}: 3})))
	want := Partition{index.NewSet(1, 2), index.NewSet(4)}
	if !p.Equal(want) {
		t.Fatalf("Choose = %v, want baseline %v", p, want)
	}
}

func TestChoosePartitionDeterministic(t *testing.T) {
	doi := testDoi(map[Pair]float64{
		{1, 2}: 3, {2, 3}: 2, {4, 5}: 7, {1, 5}: 1,
	})
	run := func() Partition {
		pt := &Partitioner{StateCnt: 24, MaxPartSize: 4, RandCnt: 8,
			Rand: rand.New(rand.NewSource(99))}
		d := index.NewSet(1, 2, 3, 4, 5)
		return pt.Choose(d, nil, pairsOf(d, doi))
	}
	if !run().Equal(run()) {
		t.Fatalf("same seed produced different partitions")
	}
}

// TestChoosePartitionLossNearOptimal compares the randomized search with
// exhaustive enumeration on a small instance.
func TestChoosePartitionLossNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ids := []index.ID{1, 2, 3, 4, 5}
	pairs := make(map[Pair]float64)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if rng.Float64() < 0.6 {
				pairs[MakePair(ids[i], ids[j])] = rng.Float64() * 10
			}
		}
	}
	doi := testDoi(pairs)
	const stateCnt = 14

	best := math.Inf(1)
	enumeratePartitions(ids, func(p Partition) {
		if p.States() <= stateCnt && p.Loss(doi) < best {
			best = p.Loss(doi)
		}
	})

	pt := &Partitioner{StateCnt: stateCnt, MaxPartSize: 10, RandCnt: 64,
		Rand: rand.New(rand.NewSource(7))}
	d := index.NewSet(ids...)
	got := pt.Choose(d, nil, pairsOf(d, doi))
	if got.States() > stateCnt {
		t.Fatalf("bound violated")
	}
	if got.Loss(doi) > best*1.5+1e-9 {
		t.Fatalf("randomized loss %v far from optimal %v", got.Loss(doi), best)
	}
}

// enumeratePartitions visits every set partition of ids (Bell number; fine
// for 5 elements).
func enumeratePartitions(ids []index.ID, visit func(Partition)) {
	var assign func(i int, groups [][]index.ID)
	assign = func(i int, groups [][]index.ID) {
		if i == len(ids) {
			var p Partition
			for _, g := range groups {
				p = append(p, index.NewSet(g...))
			}
			visit(p)
			return
		}
		for gi := range groups {
			groups[gi] = append(groups[gi], ids[i])
			assign(i+1, groups)
			groups[gi] = groups[gi][:len(groups[gi])-1]
		}
		assign(i+1, append(groups, []index.ID{ids[i]}))
	}
	assign(0, nil)
}

// TestEqualNormalized checks the no-copy comparison against Equal on
// normalized inputs, and that Choose/randomMerge outputs satisfy its
// precondition (parts ordered by smallest member).
func TestEqualNormalized(t *testing.T) {
	a := Partition{index.NewSet(1, 2), index.NewSet(5)}.Normalize()
	b := Partition{index.NewSet(5), index.NewSet(2, 1)}.Normalize()
	if !a.EqualNormalized(b) || !a.Equal(b) {
		t.Fatalf("equal partitions not detected")
	}
	c := Partition{index.NewSet(1, 2), index.NewSet(6)}.Normalize()
	if a.EqualNormalized(c) || a.Equal(c) {
		t.Fatalf("unequal partitions not detected")
	}
}

// TestChooseReturnsNormalized verifies the documented contract that
// Choose output is in Normalize form, which WFIT's EqualNormalized
// comparison relies on.
func TestChooseReturnsNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := make([]index.ID, 12)
	for i := range ids {
		ids[i] = index.ID(i + 1)
	}
	doiTable := make(map[Pair]float64)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if rng.Float64() < 0.4 {
				doiTable[MakePair(ids[i], ids[j])] = rng.Float64() * 50
			}
		}
	}
	doi := func(a, b index.ID) float64 { return doiTable[MakePair(a, b)] }
	for trial := 0; trial < 10; trial++ {
		pt := &Partitioner{StateCnt: 200, MaxPartSize: 6, RandCnt: 8,
			Rand: rand.New(rand.NewSource(int64(trial)))}
		d := index.NewSet(ids...)
		got := pt.Choose(d, nil, pairsOf(d, doi))
		if !got.EqualNormalized(got.Normalize()) {
			t.Fatalf("trial %d: Choose output not normalized: %v", trial, got)
		}
		if !got.Validate() {
			t.Fatalf("trial %d: invalid partition", trial)
		}
	}
}
