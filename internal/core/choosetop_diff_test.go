package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/interaction"
)

// refChooseTop is the previous chooseTop, kept as the reference the
// differential test holds chooseTop to: it scores every universe member
// with full window scans and sorts them all. It also reports whether the
// fill took a negative score and whether it met a score tie, so the test
// can check it covered both.
func refChooseTop(t *WFIT) (d index.Set, tookNegative, sawTie bool) {
	m := t.materialized.Intersect(t.universe).Union(t.pinned.Active(t.n, t.options.HistSize))
	budget := t.options.IdxCnt - m.Len()
	if budget < 0 {
		budget = 0
	}
	currentC := t.partsetC

	type scored struct {
		id    index.ID
		score float64
	}
	var entries []scored
	t.universe.Each(func(a index.ID) {
		if m.Contains(a) {
			return
		}
		if currentC.Contains(a) {
			entries = append(entries, scored{a, t.idxStats.Current(a, t.n)})
			return
		}
		if t.idxStats.Current(a, t.n) <= 0 {
			return
		}
		entries = append(entries, scored{a, t.idxStats.CurrentPenalized(a, t.n, t.reg.CreateCost(a))})
	})
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].score != entries[j].score {
			return entries[i].score > entries[j].score
		}
		return entries[i].id < entries[j].id
	})
	d = m
	taken := 0
	for k, entry := range entries {
		if taken >= budget {
			break
		}
		if k > 0 && entries[k-1].score == entry.score {
			sawTie = true
		}
		def := t.reg.Get(entry.id)
		redundant := false
		d.Each(func(chosen index.ID) {
			if index.Nested(def, t.reg.Get(chosen)) {
				redundant = true
			}
		})
		if !redundant {
			d = d.Add(entry.id)
			taken++
			tookNegative = tookNegative || entry.score < 0
		}
	}
	return d, tookNegative, sawTie
}

// topDiffValue draws one benefit observation: small integer multiples
// (equal windows, so score ties), spread-out floats, a subnormal whose
// recency-weighted ratio underflows to zero, and values large enough for
// the window sum to overflow.
func topDiffValue(rng *rand.Rand) float64 {
	switch r := rng.Intn(20); {
	case r < 8:
		return float64(1+rng.Intn(4)) * 10
	case r < 17:
		return rng.ExpFloat64() * 30
	case r < 19:
		return 5e-324
	default:
		return 1e308
	}
}

// TestChooseTopMatchesReference holds the bound-pruned chooseTop to the
// full-sort reference over random benefit windows, creation costs, vote
// pins, materialized sets and monitored sets, step by step as the
// windows grow and age. Every third seed prices creation far above any
// benefit with a budget larger than the positive scores can fill, so the
// fill has to rank negative scores too. Steps also evict histories as
// retirement does, renumber IDs as registry compaction does, and restore
// the statistics from their export, so every path that rebuilds the
// statistics' per-window summaries is held to the reference, which reads
// the windows themselves.
//
// Each seed calls chooseTop on one WFIT at consecutive positions, with a
// few Adds in between, and takes each result as the next C, as WFIT does.
// The exact scores chooseTop keeps as bounds are thus read at a later
// position: some after an Add to their window, some not, and some
// negative. The test counts the newcomers of each kind and fails if a
// kind never occurs.
func TestChooseTopMatchesReference(t *testing.T) {
	tables := []string{"t1", "t2", "t3"}
	cols := []string{"a", "b", "c", "d", "e"}
	var tookNegative, sawTie bool
	var laterAfterAdd, laterNegative, laterUnchanged int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		expensive := seed%3 == 0
		reg := index.NewRegistry()
		var ids []index.ID
		for len(ids) < 70 {
			perm := rng.Perm(len(cols))[:1+rng.Intn(3)]
			var key []string
			for _, c := range perm {
				key = append(key, cols[c])
			}
			create := []float64{0, 1, 10, 10, 50, 200}[rng.Intn(6)]
			if expensive {
				create = 1e4
			}
			proto := index.Index{Table: tables[rng.Intn(len(tables))], Columns: key, CreateCost: create}
			if id := reg.Intern(proto); int(id) > len(ids) {
				ids = append(ids, id)
			}
		}
		hist := []int{0, 3, 12}[rng.Intn(3)]
		subset := func(p float64) index.Set {
			var out []index.ID
			for _, id := range ids {
				if rng.Float64() < p {
					out = append(out, id)
				}
			}
			return index.NewSet(out...)
		}
		w := &WFIT{
			reg:          reg,
			options:      Options{IdxCnt: 2 + rng.Intn(12), HistSize: hist},
			idxStats:     interaction.NewBenefitStats(hist),
			pinned:       make(map[index.ID]int),
			universe:     subset(0.7),
			partsetC:     subset(0.1),
			materialized: subset(0.05),
		}
		if expensive {
			w.options.IdxCnt = 60
		}
		// scored holds the newcomers' exact scores at the previous call,
		// and added the indices with an Add since.
		scored := make(map[index.ID]float64)
		added := make(map[index.ID]bool)
		for step := 0; step < 50; step++ {
			w.n++
			clear(added)
			for k := rng.Intn(12); k > 0; k-- {
				id, v := ids[rng.Intn(len(ids))], topDiffValue(rng)
				w.idxStats.Add(id, w.n, v)
				added[id] = true
				if rng.Intn(3) == 0 {
					id := ids[rng.Intn(len(ids))]
					w.idxStats.Add(id, w.n, v)
					added[id] = true
				}
			}
			switch rng.Intn(8) {
			case 0:
				w.pinned[ids[rng.Intn(len(ids))]] = w.n - rng.Intn(2*hist+1)
			case 1:
				w.materialized = subset(0.05)
			case 2:
				w.universe = w.universe.Union(subset(0.1))
			case 3:
				var dead []index.ID
				for k := rng.Intn(8); k > 0; k-- {
					id := ids[rng.Intn(len(ids))]
					w.idxStats.Evict(id)
					dead = append(dead, id)
				}
				w.universe = w.universe.Minus(index.NewSet(dead...))
			case 4:
				live := w.universe.Union(w.partsetC).Union(w.materialized)
				for id := range w.pinned {
					live = live.Add(id)
				}
				for _, e := range w.idxStats.Export().Entries {
					live = live.Add(e.ID)
				}
				remap := reg.Compact(live)
				w.universe = w.universe.Remap(remap)
				w.partsetC = w.partsetC.Remap(remap)
				w.materialized = w.materialized.Remap(remap)
				pinned := make(map[index.ID]int, len(w.pinned))
				for id, pos := range w.pinned {
					pinned[remap[id]] = pos
				}
				w.pinned = pinned
				w.idxStats.Remap(remap)
				clear(scored)
				kept := ids[:0]
				for _, id := range ids {
					if remap[id] != index.Invalid {
						kept = append(kept, remap[id])
					}
				}
				ids = kept
			case 5:
				restored, err := interaction.RestoreBenefitStats(w.idxStats.Export(), reg, w.n)
				if err != nil {
					t.Fatalf("seed %d step %d: restoring benefit statistics: %v", seed, step, err)
				}
				w.idxStats = restored
			}
			for id, score := range scored {
				switch {
				case added[id]:
					laterAfterAdd++
				case score < 0:
					laterNegative++
				default:
					laterUnchanged++
				}
			}
			want, neg, tie := refChooseTop(w)
			got := w.chooseTop()
			if !got.Equal(want) {
				t.Fatalf("seed %d step %d (n=%d): chooseTop = %v, reference %v", seed, step, w.n, got, want)
			}
			tookNegative, sawTie = tookNegative || neg, sawTie || tie
			clear(scored)
			m := w.materialized.Intersect(w.universe).Union(w.pinned.Active(w.n, w.options.HistSize))
			w.universe.Each(func(a index.ID) {
				if !m.Contains(a) && !w.partsetC.Contains(a) && w.idxStats.Current(a, w.n) > 0 {
					scored[a] = w.idxStats.CurrentPenalized(a, w.n, reg.CreateCost(a))
				}
			})
			w.partsetC = got
		}
	}
	if !tookNegative || !sawTie {
		t.Fatalf("reference never took a negative score (%v) or met a tie (%v)", tookNegative, sawTie)
	}
	if laterAfterAdd == 0 || laterNegative == 0 || laterUnchanged == 0 {
		t.Fatalf("newcomer scores read at a later position: %d after an Add, %d negative, %d unchanged; want each kind",
			laterAfterAdd, laterNegative, laterUnchanged)
	}
	t.Logf("newcomer scores read at a later position: %d after an Add, %d negative, %d unchanged", laterAfterAdd, laterNegative, laterUnchanged)
}
