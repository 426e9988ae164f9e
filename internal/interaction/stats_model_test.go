package interaction

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/index"
)

// mapStats is the map-keyed interaction statistics the partner adjacency
// replaced, kept as the model the adjacency is held to.
type mapStats struct {
	hist int
	m    map[Pair]*Window
}

func (s *mapStats) add(a, b index.ID, n int, d float64) {
	if !recordable(d) || a == b {
		return
	}
	p := MakePair(a, b)
	w, ok := s.m[p]
	if !ok {
		w = NewWindow(s.hist)
		s.m[p] = w
	}
	w.Add(n, d)
}

func (s *mapStats) current(a, b index.ID, n int) float64 {
	if w, ok := s.m[MakePair(a, b)]; ok {
		return w.Current(n)
	}
	return 0
}

func (s *mapStats) evict(a index.ID) {
	for p := range s.m {
		if p.A == a || p.B == a {
			delete(s.m, p)
		}
	}
}

func (s *mapStats) sweepAged(cutoff int) int {
	removed := 0
	for p, w := range s.m {
		if w.LastPos() <= cutoff {
			delete(s.m, p)
			removed++
		}
	}
	return removed
}

func (s *mapStats) remap(remap []index.ID) {
	m := make(map[Pair]*Window, len(s.m))
	for p, w := range s.m {
		m[MakePair(remap[p.A], remap[p.B])] = w
	}
	s.m = m
}

func (s *mapStats) export() InteractionStatsState {
	var ps []Pair
	for p := range s.m {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	st := InteractionStatsState{Hist: s.hist}
	for _, p := range ps {
		st.Entries = append(st.Entries, PairWindow{A: p.A, B: p.B, Window: s.m[p].Export()})
	}
	return st
}

// testRegistry returns a registry holding the IDs 1..n, which restores
// check history IDs against.
func testRegistry(n int) *index.Registry {
	reg := index.NewRegistry()
	for i := 0; i < n; i++ {
		reg.Intern(index.Index{Table: "t", Columns: []string{fmt.Sprint("c", i)}})
	}
	return reg
}

// TestInteractionStatsMatchesMapModel runs random sequences of Add,
// Evict, SweepAged, Remap and Export→Restore on InteractionStats and on
// the map it replaced. After every operation both must agree on Len, on
// Current for every ordered pair of IDs, on Export entry for entry, and on
// AppendPairs against the model's pairs of a random candidate set above a
// random threshold; SweepAged must report the same count.
func TestInteractionStatsMatchesMapModel(t *testing.T) {
	reg := testRegistry(48)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hist := []int{0, 1, 4}[rng.Intn(3)]
		s, model := NewInteractionStats(hist), &mapStats{hist: hist, m: make(map[Pair]*Window)}
		ids := 8 + rng.Intn(40) // live IDs are 1..ids
		n := 1
		id := func() index.ID { return index.ID(1 + rng.Intn(ids)) }
		for op := 0; op < 300; op++ {
			what := ""
			switch r := rng.Intn(20); {
			case r < 13:
				what = "Add"
				n += rng.Intn(2)
				a, b := id(), id()
				v := []float64{rng.ExpFloat64() * 10, float64(1 + rng.Intn(3)), 5e-324, 0, -1, math.Inf(1), math.NaN()}[rng.Intn(7)]
				s.Add(a, b, n, v)
				model.add(a, b, n, v)
			case r < 15:
				what = "Evict"
				a := id()
				s.Evict(a)
				model.evict(a)
			case r < 17:
				what = "SweepAged"
				cutoff := n - rng.Intn(30)
				if got, want := s.SweepAged(cutoff), model.sweepAged(cutoff); got != want {
					t.Fatalf("seed %d op %d: SweepAged(%d) removed %d, model %d", seed, op, cutoff, got, want)
				}
			case r < 19:
				// A compaction's remap: monotone, dense from 1, and keeping
				// every ID with a history plus a random share of the rest.
				what = "Remap"
				live := make(map[index.ID]bool)
				for p := range model.m {
					live[p.A], live[p.B] = true, true
				}
				remap := make([]index.ID, ids+1)
				next := index.ID(1)
				for old := index.ID(1); int(old) <= ids; old++ {
					if live[old] || rng.Intn(3) > 0 {
						remap[old] = next
						next++
					}
				}
				s.Remap(remap)
				model.remap(remap)
				ids = int(next) - 1
				if ids == 0 {
					ids = 1
				}
			default:
				what = "Export→Restore"
				restored, err := RestoreInteractionStats(s.Export(), reg, n)
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				s = restored
			}
			if s.Len() != len(model.m) {
				t.Fatalf("seed %d op %d (%s): Len %d, model %d", seed, op, what, s.Len(), len(model.m))
			}
			for a := index.ID(0); int(a) <= ids+1; a++ {
				for b := index.ID(0); int(b) <= ids+1; b++ {
					if got, want := s.Current(a, b, n), model.current(a, b, n); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d op %d (%s): Current(%d, %d) = %v, model %v", seed, op, what, a, b, got, want)
					}
				}
			}
			got, want := s.Export(), model.export()
			if got.Hist != want.Hist || len(got.Entries) != len(want.Entries) {
				t.Fatalf("seed %d op %d (%s): Export has %d entries, model %d", seed, op, what, len(got.Entries), len(want.Entries))
			}
			for k := range got.Entries {
				if !reflect.DeepEqual(got.Entries[k], want.Entries[k]) {
					t.Fatalf("seed %d op %d (%s): Export entry %d = %+v, model %+v", seed, op, what, k, got.Entries[k], want.Entries[k])
				}
			}
			var members []index.ID
			for a := index.ID(1); int(a) <= ids+1; a++ {
				if rng.Intn(2) == 0 {
					members = append(members, a)
				}
			}
			d := index.NewSet(members...)
			threshold := []float64{0, 1, 3}[rng.Intn(3)]
			var wantPairs []PairDoi
			for i := 0; i < d.Len(); i++ {
				for j := i + 1; j < d.Len(); j++ {
					if v := model.current(d.At(i), d.At(j), n+1); v > threshold && v > 0 {
						wantPairs = append(wantPairs, PairDoi{A: d.At(i), B: d.At(j), Doi: v})
					}
				}
			}
			if gotPairs := s.AppendPairs(nil, d, n+1, threshold); !reflect.DeepEqual(gotPairs, wantPairs) {
				t.Fatalf("seed %d op %d (%s): AppendPairs(%v, threshold %v) = %v, model %v", seed, op, what, d, threshold, gotPairs, wantPairs)
			}
		}
	}
}

// TestRestoreInteractionStatsRejectsDisorder checks that a restore refuses
// what Export never writes: a pair with A ≥ B, and pairs out of ascending
// (A, B) order, duplicates included.
func TestRestoreInteractionStatsRejectsDisorder(t *testing.T) {
	reg := testRegistry(4)
	w := WindowState{Pos: []int{1}, Vals: []float64{2}}
	for _, entries := range [][]PairWindow{
		{{A: 2, B: 2, Window: w}},
		{{A: 3, B: 2, Window: w}},
		{{A: 1, B: 3, Window: w}, {A: 1, B: 2, Window: w}},
		{{A: 2, B: 3, Window: w}, {A: 1, B: 4, Window: w}},
		{{A: 1, B: 2, Window: w}, {A: 1, B: 2, Window: w}},
	} {
		if _, err := RestoreInteractionStats(InteractionStatsState{Entries: entries}, reg, 1); err == nil {
			t.Fatalf("restore accepted %+v", entries)
		}
	}
	s, err := RestoreInteractionStats(InteractionStatsState{Entries: []PairWindow{
		{A: 1, B: 2, Window: w}, {A: 1, B: 3, Window: w}, {A: 2, B: 3, Window: w},
	}}, reg, 1)
	if err != nil || s.Len() != 3 || s.Current(3, 1, 1) != 2 {
		t.Fatalf("restore of ascending pairs: %v, Len %d", err, s.Len())
	}
}

// TestRestoreRejectsWindowCapOtherThanHist checks that a restore refuses a
// window whose cap is not its statistics' Hist, as every live window's is.
// Restored unchecked, a benefit window with cap 0 holding 150 entries
// under Hist 100 grows to 151 on the next Add.
func TestRestoreRejectsWindowCapOtherThanHist(t *testing.T) {
	reg := testRegistry(4)
	long := WindowState{Cap: 0}
	for i := 1; i <= 150; i++ {
		long.Pos = append(long.Pos, i)
		long.Vals = append(long.Vals, 1)
	}
	if _, err := RestoreBenefitStats(BenefitStatsState{Hist: 100, Entries: []BenefitWindow{{ID: 1, Window: long}}}, reg, 150); err == nil {
		t.Fatal("benefit restore accepted a window with cap 0 under Hist 100")
	}
	pair := WindowState{Cap: 7, Pos: []int{1}, Vals: []float64{2}}
	if _, err := RestoreInteractionStats(InteractionStatsState{Hist: 100, Entries: []PairWindow{{A: 1, B: 2, Window: pair}}}, reg, 1); err == nil {
		t.Fatal("interaction restore accepted a window with cap 7 under Hist 100")
	}
	pair.Cap = 100
	if _, err := RestoreInteractionStats(InteractionStatsState{Hist: 100, Entries: []PairWindow{{A: 1, B: 2, Window: pair}}}, reg, 1); err != nil {
		t.Fatalf("interaction restore of a window capped at Hist: %v", err)
	}
}
