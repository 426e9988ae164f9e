package bandit

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/stmt"
	"repro/internal/whatif"
)

// tableQuery returns a selective single-predicate query.
func tableQuery(id int, table, column string) *stmt.Statement {
	return &stmt.Statement{
		ID: id, Kind: stmt.Query,
		Tables: []string{table},
		Preds:  []stmt.Pred{{Table: table, Column: column, Selectivity: 0.001}},
	}
}

// rotatingQuery alternates every 25 statements between a lineitem phase
// and a phase cycling through four other tables, so arms mined in one
// phase retire in the next and are mined again when it comes back.
func rotatingQuery(n int) *stmt.Statement {
	if (n/25)%2 == 0 {
		return tableQuery(n, "tpch.lineitem", "l_shipdate")
	}
	switch n % 4 {
	case 0:
		return tableQuery(n, "tpce.trade", "t_dts")
	case 1:
		return tableQuery(n, "tpcc.orderline", "ol_amount")
	case 2:
		return tableQuery(n, "tpce.daily_market", "dm_vol")
	default:
		return tableQuery(n, "nref.protein", "mol_weight")
	}
}

// definitionKeys renders s as its sorted definition keys. Sets render in
// ID order, and a definition compacted away and then mined again gets a
// new, higher ID, so ID order alone can differ between two engines that
// recommend the same indices.
func definitionKeys(reg *index.Registry, s index.Set) string {
	keys := make([]string, 0, s.Len())
	s.Each(func(id index.ID) { keys = append(keys, reg.Get(id).Key()) })
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// TestCompactRegistryPreservesDecisions runs two identical bandits with
// retirement enabled — one compacting periodically, one never — over the
// same stream and checks they recommend the same indices by definition
// at every step. Compaction renumbers IDs monotonically and the what-if
// optimizer holds nothing keyed by ID, so behavior must not change.
func TestCompactRegistryPreservesDecisions(t *testing.T) {
	cat, _ := datagen.Build()
	mk := func() (*index.Registry, *Bandit) {
		reg := index.NewRegistry()
		options := core.DefaultOptions()
		options.IdxCnt = 4
		options.HistSize = 10
		options.RetireAfter = 20
		return reg, New(whatif.New(cost.NewModel(cat, reg, cost.DefaultParams())), options)
	}
	regA, a := mk()
	regB, b := mk()

	dropped := 0
	for n := 1; n <= 200; n++ {
		a.AnalyzeQuery(rotatingQuery(n))
		b.AnalyzeQuery(rotatingQuery(n))
		if n%40 == 0 {
			dropped += a.CompactRegistry()
		}
		if ra, rb := definitionKeys(regA, a.Recommend()), definitionKeys(regB, b.Recommend()); ra != rb {
			t.Fatalf("statement %d: recommendations diverged after compaction:\n  compacted: %s\n  reference: %s", n, ra, rb)
		}
	}
	if dropped == 0 {
		t.Fatalf("compaction never dropped a registry entry")
	}
	if ra, rb := a.Status().Retired, b.Status().Retired; ra != rb {
		t.Errorf("retirement diverged: %d vs %d", ra, rb)
	}
}

// TestRestoreRejectsHistoryBeyondRegistry checks that Restore refuses a
// state naming an index ID the registry does not hold, the invalid ID 0
// included, in a benefit history, a set, a pin or a ban, a benefit
// history that ends after the statement count, and histories bounded
// other than by HistSize. Restored unchecked, ID 0
// in the selection, the materialized set or the universe panics the next
// AnalyzeQuery ("index: unknown ID 0"), and so does the late history
// ("interaction: Window positions must be non-decreasing").
func TestRestoreRejectsHistoryBeyondRegistry(t *testing.T) {
	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	options := core.DefaultOptions()
	opt := whatif.New(cost.NewModel(cat, reg, cost.DefaultParams()))
	b := New(opt, options)
	for n := 1; n <= 10; n++ {
		b.AnalyzeQuery(rotatingQuery(n))
	}
	st := b.ExportState().(*State)
	if len(st.Stats.Entries) == 0 {
		t.Fatalf("no benefit history to corrupt")
	}
	if _, err := Restore(opt, st); err != nil {
		t.Fatalf("Restore of an exported state: %v", err)
	}
	beyond := index.ID(reg.Len() + 1)
	const outside = "outside registry"
	cases := []struct {
		name    string
		corrupt func(st *State)
		want    string
	}{
		{"benefit ID beyond registry", func(st *State) { st.Stats.Entries[len(st.Stats.Entries)-1].ID = beyond }, outside},
		{"benefit ID invalid", func(st *State) { st.Stats.Entries[0].ID = index.Invalid }, outside},
		{"selection ID invalid", func(st *State) { st.Selection = st.Selection.Add(index.Invalid) }, outside},
		{"materialized ID invalid", func(st *State) { st.Materialized = st.Materialized.Add(index.Invalid) }, outside},
		{"universe ID invalid", func(st *State) { st.Universe = st.Universe.Add(index.Invalid) }, outside},
		{"initial set ID beyond registry", func(st *State) { st.S0 = st.S0.Add(beyond) }, outside},
		{"pin ID beyond registry", func(st *State) { st.Pinned = append(st.Pinned, core.PinnedVote{ID: beyond, Pos: st.N}) }, outside},
		{"ban ID invalid", func(st *State) { st.Banned = append([]core.PinnedVote{{ID: index.Invalid, Pos: st.N}}, st.Banned...) }, outside},
		{"benefit position beyond N", func(st *State) {
			ws := &st.Stats.Entries[0].Window
			pos := append([]int(nil), ws.Pos...)
			pos[len(pos)-1] = st.N + 50
			ws.Pos = pos
		}, "beyond statement count"},
		{"unbounded benefit window", func(st *State) { st.Stats.Entries[0].Window.Cap = 0 }, "capped at 0 entries"},
		{"statistics histories other than HistSize", func(st *State) {
			st.Stats.Hist *= 2
			for i := range st.Stats.Entries {
				st.Stats.Entries[i].Window.Cap = st.Stats.Hist
			}
		}, "HistSize"},
	}
	for _, c := range cases {
		bad := b.ExportState().(*State)
		c.corrupt(bad)
		if _, err := Restore(opt, bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore error = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
