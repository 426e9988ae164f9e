package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/interaction"
)

// cloneStats deep-copies the exported histories, whose windows alias the
// live tuner's, and copies the partition and part lists, so a test can
// corrupt them without touching the tuner.
func cloneStats(st *TunerState) *TunerState {
	c := *st
	c.Partition = append(interaction.Partition(nil), st.Partition...)
	c.Parts = append([]WFAState(nil), st.Parts...)
	cp := func(w interaction.WindowState) interaction.WindowState {
		w.Pos = append([]int(nil), w.Pos...)
		w.Vals = append([]float64(nil), w.Vals...)
		return w
	}
	c.IdxStats.Entries = nil
	for _, e := range st.IdxStats.Entries {
		c.IdxStats.Entries = append(c.IdxStats.Entries, interaction.BenefitWindow{ID: e.ID, Window: cp(e.Window)})
	}
	c.IntStats.Entries = nil
	for _, e := range st.IntStats.Entries {
		c.IntStats.Entries = append(c.IntStats.Entries, interaction.PairWindow{A: e.A, B: e.B, Window: cp(e.Window)})
	}
	return &c
}

// TestRestoreRejectsImpossibleHistories feeds RestoreWFIT statistics
// histories and part states the live tuner cannot produce. Each must be
// refused with an error. Restored unchecked, several crash the tuner
// later: a history ID beyond the registry panics in the next
// CompactRegistry (index out of range in Remap), a history position
// beyond the statement count panics in Window.Add on the next statement,
// a recommendation mask beyond the part's candidates panics in the next
// WFA.Feedback that reaches the part, a work function over indices
// outside the partition panics in the next CompactRegistry, which drops
// them, and the invalid ID 0 in the materialized set, the universe or a
// pin panics the next AnalyzeQuery. ID 0 in a part, or a part wider than
// MaxPartBits, panics inside an unchecked RestoreWFIT itself.
func TestRestoreRejectsImpossibleHistories(t *testing.T) {
	e := newWFITEnv(t)
	w := NewWFIT(e.opt, DefaultOptions())
	for i := 1; i <= 30; i++ {
		switch i % 3 {
		case 0:
			w.AnalyzeQuery(e.lineitemQuery(i, 0.001))
		case 1:
			w.AnalyzeQuery(e.tradeQuery(i))
		default:
			w.AnalyzeQuery(e.taxUpdate(i))
		}
	}
	// A definition nothing references, so compaction has work to do.
	orphan := e.internIndex("tpch.orders", "o_orderdate")
	// Definitions enough for a part wider than a WFA holds.
	wide := make([]index.ID, MaxPartBits+1)
	for i := range wide {
		wide[i] = e.reg.Intern(index.Index{Table: "wide", Columns: []string{fmt.Sprint("c", i)}})
	}
	st := w.ExportState()
	if len(st.IdxStats.Entries) == 0 || len(st.IntStats.Entries) == 0 {
		t.Fatalf("setup: want benefit and interaction histories, got %d and %d",
			len(st.IdxStats.Entries), len(st.IntStats.Entries))
	}
	if len(st.Partition) < 2 {
		t.Fatalf("setup: want at least two parts, got %d", len(st.Partition))
	}
	if _, err := RestoreWFIT(e.opt, cloneStats(st)); err != nil {
		t.Fatalf("restoring the tuner's own state: %v", err)
	}
	regLen := index.ID(e.reg.Len())
	analyzeNext := func(w *WFIT) { w.AnalyzeQuery(e.tradeQuery(w.StatementsSeen() + 1)) }

	cases := []struct {
		name    string
		corrupt func(st *TunerState)
		want    string
		then    func(w *WFIT) // what crashed a tuner restored unchecked
	}{
		{"benefit ID beyond registry", func(st *TunerState) {
			st.IdxStats.Entries = append(st.IdxStats.Entries, interaction.BenefitWindow{
				ID: regLen + 5, Window: interaction.WindowState{Cap: st.IdxStats.Hist, Pos: []int{st.N}, Vals: []float64{1}}})
		}, "outside registry", func(w *WFIT) { w.CompactRegistry() }},
		{"benefit position beyond N", func(st *TunerState) {
			ws := &st.IdxStats.Entries[0].Window
			ws.Pos[len(ws.Pos)-1] = st.N + 10
		}, "beyond statement count", func(w *WFIT) {
			for i := 0; i < 3; i++ {
				w.AnalyzeQuery(e.tradeQuery(w.StatementsSeen() + 1))
			}
		}},
		{"interaction ID beyond registry", func(st *TunerState) {
			st.IntStats.Entries[0].B = regLen + 1
		}, "outside registry", nil},
		{"interaction ID invalid", func(st *TunerState) {
			st.IntStats.Entries[0].A = index.Invalid
		}, "outside registry", nil},
		{"interaction pair unordered", func(st *TunerState) {
			p := &st.IntStats.Entries[0]
			p.A, p.B = p.B, p.A
		}, "unordered pair", nil},
		{"interaction position beyond N", func(st *TunerState) {
			ws := &st.IntStats.Entries[0].Window
			ws.Pos[len(ws.Pos)-1] = st.N + 1
		}, "beyond statement count", nil},
		{"decreasing positions", func(st *TunerState) {
			st.IdxStats.Entries[0].Window = interaction.WindowState{Cap: st.IdxStats.Hist, Pos: []int{5, 4}, Vals: []float64{1, 1}}
		}, "decrease", nil},
		{"zero value", func(st *TunerState) {
			st.IdxStats.Entries[0].Window.Vals[0] = 0
		}, "not finite and positive", nil},
		{"negative value", func(st *TunerState) {
			st.IntStats.Entries[0].Window.Vals[0] = -1
		}, "not finite and positive", nil},
		{"NaN value", func(st *TunerState) {
			st.IdxStats.Entries[0].Window.Vals[0] = math.NaN()
		}, "not finite and positive", nil},
		{"infinite value", func(st *TunerState) {
			st.IdxStats.Entries[0].Window.Vals[0] = math.Inf(1)
		}, "not finite and positive", nil},
		{"entries over the cap", func(st *TunerState) {
			st.IdxStats.Entries[0].Window = interaction.WindowState{Cap: 1, Pos: []int{1, 2}, Vals: []float64{1, 1}}
		}, "over its cap", nil},
		{"unbounded benefit window", func(st *TunerState) {
			st.IdxStats.Entries[0].Window.Cap = 0
		}, "capped at 0 entries", nil},
		{"pair window cap other than the statistics'", func(st *TunerState) {
			st.IntStats.Entries[0].Window.Cap = 2 * st.IntStats.Hist
		}, "capped at 200 entries", nil},
		{"statistics histories other than HistSize", func(st *TunerState) {
			st.Options.HistSize = st.IdxStats.Hist + 1
		}, "HistSize", nil},
		{"pair histories other than HistSize", func(st *TunerState) {
			st.IntStats.Hist *= 2
			for i := range st.IntStats.Entries {
				st.IntStats.Entries[i].Window.Cap = st.IntStats.Hist
			}
		}, "HistSize", nil},
		{"recommendation beyond the part", func(st *TunerState) {
			st.Parts[0].CurrRec |= 1 << len(st.Parts[0].Cand)
		}, "beyond its", func(w *WFIT) { w.Feedback(index.EmptySet, w.Partition().Union()) }},
		{"part outside the partition", func(st *TunerState) {
			st.Parts = append(st.Parts, WFAState{Cand: []index.ID{orphan}, W: []float64{0, 1}})
		}, "do not match the partition", func(w *WFIT) { w.CompactRegistry() }},
		{"empty part outside the partition", func(st *TunerState) {
			st.Parts = append(st.Parts, WFAState{W: []float64{0}})
		}, "do not match the partition", nil},
		{"partition not normalized", func(st *TunerState) {
			st.Partition[0], st.Partition[1] = st.Partition[1], st.Partition[0]
		}, "not a normalized partition", nil},
		{"partition with a repeated part", func(st *TunerState) {
			first := st.Partition[0]
			st.Partition = append(interaction.Partition{first}, st.Partition...)
			for _, p := range st.Parts {
				if index.NewSet(p.Cand...).Equal(first) {
					st.Parts = append(st.Parts, p)
				}
			}
		}, "not a normalized partition", nil},
		{"materialized ID invalid", func(st *TunerState) {
			st.Materialized = st.Materialized.Add(index.Invalid)
		}, "outside registry", analyzeNext},
		{"universe ID invalid", func(st *TunerState) {
			st.Universe = st.Universe.Add(index.Invalid)
		}, "outside registry", analyzeNext},
		{"initial set ID beyond registry", func(st *TunerState) {
			st.S0 = st.S0.Add(regLen + 1)
		}, "outside registry", nil},
		{"pin ID invalid", func(st *TunerState) {
			st.Pinned = append([]PinnedVote{{ID: index.Invalid, Pos: st.N}}, st.Pinned...)
		}, "outside registry", analyzeNext},
		{"part member invalid", func(st *TunerState) {
			cand := append([]index.ID(nil), st.Parts[0].Cand...)
			cand[0] = index.Invalid
			st.Parts[0].Cand = cand
		}, "outside registry", nil},
		{"part wider than MaxPartBits", func(st *TunerState) {
			st.Parts = append(st.Parts, WFAState{Cand: wide, W: make([]float64, 1<<len(wide))})
		}, "more than MaxPartBits", nil},
		{"part cap wider than MaxPartBits", func(st *TunerState) {
			st.Options.MaxPartSize = MaxPartBits + 10
		}, "more than MaxPartBits", nil},
	}
	for _, c := range cases {
		bad := cloneStats(st)
		c.corrupt(bad)
		restored, err := func() (w *WFIT, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return RestoreWFIT(e.opt, bad)
		}()
		if err != nil {
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: RestoreWFIT error = %v, want one mentioning %q", c.name, err, c.want)
			}
			continue
		}
		t.Errorf("%s: RestoreWFIT accepted the state", c.name)
		if c.then != nil {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: the restored tuner then panicked: %v", c.name, r)
					}
				}()
				c.then(restored)
			}()
		}
	}
}
