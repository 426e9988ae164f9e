package interaction

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/index"
)

// TestWindowCurrentProperties uses testing/quick over random positive
// histories to check structural properties of the LRU-K style aggregate.
func TestWindowCurrentProperties(t *testing.T) {
	f := func(raw []uint8, nAfter uint8) bool {
		w := NewWindow(0)
		pos := 0
		var maxVal float64
		for _, r := range raw {
			pos++
			v := float64(r%100) + 1
			w.Add(pos, v)
			if v > maxVal {
				maxVal = v
			}
		}
		n := pos + int(nAfter)

		cur := w.Current(n)
		// Non-negative, and never exceeds the largest single value
		// (each prefix average is ≤ max value since denominators are at
		// least the count of summed entries).
		if cur < 0 || cur > maxVal+1e-9 {
			return false
		}
		// Penalty monotonicity: charging a cost never helps.
		if w.CurrentPenalized(n, 10) > cur+1e-9 {
			return false
		}
		// Aging: evaluating later never increases the aggregate.
		if w.Current(n+10) > cur+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowCapKeepsMostRecent property: with a cap, the retained entries
// are exactly the most recent ones.
func TestWindowCapKeepsMostRecent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		cap := 1 + rng.Intn(10)
		n := 1 + rng.Intn(30)
		w := NewWindow(cap)
		var vals []float64
		for i := 1; i <= n; i++ {
			v := rng.Float64()*50 + 1
			w.Add(i, v)
			vals = append(vals, v)
		}
		keep := vals
		if len(vals) > cap {
			keep = vals[len(vals)-cap:]
		}
		if got := w.Export(); !slices.Equal(got.Vals, keep) || len(got.Pos) != len(keep) || got.Pos[0] != n-len(keep)+1 {
			t.Fatalf("cap=%d n=%d: retained %+v, want the last %d values %v", cap, n, got, len(keep), keep)
		}
	}
}

// TestCurrentPenalizedEntryCondition reflects topIndices semantics: a
// fresh burst of benefit must overcome the creation penalty to produce a
// positive score.
func TestCurrentPenalizedEntryCondition(t *testing.T) {
	w := NewWindow(100)
	// Three recent benefits of 50 at positions 8..10; penalty 120.
	w.Add(8, 50)
	w.Add(9, 50)
	w.Add(10, 50)
	// At N=10: best ℓ=3 gives (150−120)/3 = 10.
	if got := w.CurrentPenalized(10, 120); got != 10 {
		t.Fatalf("CurrentPenalized = %v, want 10", got)
	}
	// A penalty larger than the accumulated benefit keeps the score
	// negative.
	if got := w.CurrentPenalized(10, 200); got >= 0 {
		t.Fatalf("unpaid penalty should stay negative, got %v", got)
	}
	// Empty windows owe the full penalty.
	if got := NewWindow(10).CurrentPenalized(5, 33); got != -33 {
		t.Fatalf("empty penalized = %v, want -33", got)
	}
}

// TestPartitionLossAdditivity: loss of a refinement is at least the loss
// of the coarser partition (splitting parts can only expose more
// cross-part interaction mass).
func TestPartitionLossAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		pairs := make(map[Pair]float64)
		for i := index.ID(1); i <= 6; i++ {
			for j := i + 1; j <= 6; j++ {
				pairs[MakePair(i, j)] = rng.Float64() * 10
			}
		}
		doi := func(a, b index.ID) float64 { return pairs[MakePair(a, b)] }
		coarse := Partition{index.NewSet(1, 2, 3), index.NewSet(4, 5, 6)}
		fine := Partition{index.NewSet(1, 2), index.NewSet(3), index.NewSet(4, 5, 6)}
		if fine.Loss(doi) < coarse.Loss(doi)-1e-9 {
			t.Fatalf("refinement reduced loss: %v < %v", fine.Loss(doi), coarse.Loss(doi))
		}
	}
}
