package core

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/stmt"
)

// internIndex interns an index definition directly (the path a DBA vote
// for a never-mined index takes through the service layer).
func (e *wfitEnv) internIndex(table string, columns ...string) index.ID {
	proto := cost.BuildIndexProto(e.model.Catalog(), e.model.Params(), table, columns)
	return e.reg.Intern(proto)
}

// tableQuery returns a selective single-predicate query; distinct tables
// give chooseTop distinct index families to fill C with.
func tableQuery(id int, table, column string, sel float64) *stmt.Statement {
	return &stmt.Statement{
		ID: id, Kind: stmt.Query,
		Tables: []string{table},
		Preds:  []stmt.Pred{{Table: table, Column: column, Selectivity: sel}},
	}
}

// rotationQuery cycles through four index families on tables other than
// tpch.lineitem — a workload that has rotated away from phase 1.
func rotationQuery(n int) *stmt.Statement {
	switch n % 4 {
	case 0:
		return tableQuery(n, "tpce.trade", "t_dts", 0.001)
	case 1:
		return tableQuery(n, "tpcc.orderline", "ol_amount", 0.001)
	case 2:
		return tableQuery(n, "tpce.daily_market", "dm_vol", 0.001)
	default:
		return tableQuery(n, "nref.protein", "mol_weight", 0.001)
	}
}

// fillCandidates drives enough distinct beneficial queries that the
// monitored set C is saturated at IdxCnt, so chooseTop has to evict
// something to admit anything.
func fillCandidates(t *testing.T, e *wfitEnv, w *WFIT, n *int) {
	t.Helper()
	for i := 0; i < 16; i++ {
		*n++
		if *n%5 == 0 {
			w.AnalyzeQuery(e.lineitemQuery(*n, 0.001))
		} else {
			w.AnalyzeQuery(rotationQuery(*n))
		}
	}
	if w.Partition().Union().Len() < w.options.IdxCnt {
		t.Fatalf("setup: monitored set not saturated: %d < %d",
			w.Partition().Union().Len(), w.options.IdxCnt)
	}
}

// TestVotedIndexSurvivesChooseTop is the regression test for the
// vote-eviction bug: an F+ vote for an index outside C enters as a
// singleton part with an empty benefit window, and before pinning the
// very next chooseTop (score 0 against a saturated C) evicted it — the
// DBA's vote lasted exactly one statement.
func TestVotedIndexSurvivesChooseTop(t *testing.T) {
	e := newWFITEnv(t)
	options := DefaultOptions()
	options.IdxCnt = 4
	w := NewWFIT(e.opt, options)
	n := 0
	fillCandidates(t, e, w, &n)

	voted := e.internIndex("tpcc.customer", "c_balance")
	w.Feedback(index.NewSet(voted), index.EmptySet)
	if !w.Partition().Union().Contains(voted) {
		t.Fatalf("voted index did not enter the partition")
	}
	if !w.Recommend().Contains(voted) {
		t.Fatalf("F+ consistency violated immediately after the vote")
	}

	// One more statement (irrelevant to the voted index) used to evict it.
	n++
	w.AnalyzeQuery(e.lineitemQuery(n, 0.001))
	if !w.Partition().Union().Contains(voted) {
		t.Fatalf("voted index evicted by the next chooseTop (vote-eviction bug)")
	}
	if !w.Recommend().Contains(voted) {
		t.Fatalf("recommendation dropped the voted index right after the vote")
	}

	// The pin is a grace window, not tenure: once HistSize statements
	// pass with no supporting evidence, normal scoring applies again and
	// the index may be evicted.
	for i := 0; i < options.HistSize+1; i++ {
		n++
		w.AnalyzeQuery(e.lineitemQuery(n, 0.001))
	}
	if w.Partition().Union().Contains(voted) {
		t.Fatalf("evidence-free voted index still monitored after the grace window")
	}
}

// TestNegativeVoteUnpins verifies an F− vote withdraws an earlier pin:
// the DBA changed their mind, and the index must become evictable again.
func TestNegativeVoteUnpins(t *testing.T) {
	e := newWFITEnv(t)
	options := DefaultOptions()
	options.IdxCnt = 4
	w := NewWFIT(e.opt, options)
	n := 0
	fillCandidates(t, e, w, &n)

	voted := e.internIndex("tpcc.customer", "c_balance")
	w.Feedback(index.NewSet(voted), index.EmptySet)
	w.Feedback(index.EmptySet, index.NewSet(voted))
	n++
	w.AnalyzeQuery(e.lineitemQuery(n, 0.001))
	if w.Partition().Union().Contains(voted) {
		t.Fatalf("F−-voted index still pinned into the monitored set")
	}
}

// TestRetirementDropsIdleIndex is the retirement property test: once the
// workload rotates away, a no-longer-monitored index's statistics age
// out and the index leaves the universe, its histories, and — after a
// compaction — the registry itself.
func TestRetirementDropsIdleIndex(t *testing.T) {
	e := newWFITEnv(t)
	options := DefaultOptions()
	options.IdxCnt = 4
	options.HistSize = 10
	options.RetireAfter = 30
	w := NewWFIT(e.opt, options)

	// Phase 1: lineitem queries mine and monitor lineitem indices.
	n := 0
	for i := 0; i < 3; i++ {
		n++
		w.AnalyzeQuery(e.lineitemQuery(n, 0.001))
	}
	lineitem := index.EmptySet
	w.Partition().Union().Each(func(id index.ID) {
		if e.reg.Get(id).Table == "tpch.lineitem" {
			lineitem = lineitem.Add(id)
		}
	})
	if lineitem.Empty() {
		t.Fatalf("setup: no lineitem indices monitored")
	}
	universeBefore := w.UniverseSize()

	// Phase 2: the workload rotates away for well past the retirement
	// horizon — long enough that the phase-1 burst's 1/age decay drops
	// below the fresh candidates' scores, evicting lineitem from C, and
	// then a further RetireAfter statements age it out of U entirely.
	for i := 0; i < 200+options.RetireAfter+options.HistSize; i++ {
		n++
		w.AnalyzeQuery(rotationQuery(n))
	}
	lineitem.Each(func(id index.ID) {
		if w.Partition().Union().Contains(id) {
			t.Fatalf("idle lineitem index %v still monitored", e.reg.Get(id))
		}
	})
	if w.Retired() == 0 {
		t.Fatalf("nothing retired despite a full workload rotation")
	}
	if got := w.UniverseSize(); got >= universeBefore+10 {
		t.Errorf("universe did not shrink under rotation: %d -> %d", universeBefore, got)
	}
	benefit, pairs := w.StatsEntries()
	if benefit > 3*options.IdxCnt || pairs > options.IdxCnt*options.IdxCnt {
		t.Errorf("statistics not bounded: %d benefit windows, %d pair windows", benefit, pairs)
	}

	// Compaction reclaims the interned definitions of retired indices.
	def := *e.reg.Get(lineitem.First()) // copy before the ID space changes
	before := e.reg.Len()
	dropped := w.CompactRegistry()
	if dropped == 0 {
		t.Fatalf("compaction dropped nothing despite %d retirements", w.Retired())
	}
	if got := e.reg.Len(); got != before-dropped {
		t.Fatalf("registry length %d after dropping %d from %d", got, dropped, before)
	}
	if _, ok := e.reg.Lookup(def.Table, def.Columns); ok {
		t.Fatalf("retired definition %s survived compaction", def.Key())
	}

	// The compacted tuner keeps working — including re-mining the very
	// indices it forgot when the workload rotates back.
	for i := 0; i < 10; i++ {
		n++
		w.AnalyzeQuery(e.lineitemQuery(n, 0.001))
	}
	found := false
	w.Partition().Union().Each(func(id index.ID) {
		if e.reg.Get(id).Table == "tpch.lineitem" {
			found = true
		}
	})
	if !found {
		t.Fatalf("rotation back did not re-mine lineitem indices")
	}
}

// TestCompactRegistryPreservesDecisions runs two identical tuners with
// retirement enabled — one compacting periodically, one never — over the
// same stream and checks they recommend the same indices by definition
// at every step. Compaction renumbers IDs monotonically, so every
// ID-order tie-break ranks candidates identically and observable
// behavior must not change.
func TestCompactRegistryPreservesDecisions(t *testing.T) {
	mk := func() (*wfitEnv, *WFIT) {
		e := newWFITEnv(t)
		options := DefaultOptions()
		options.IdxCnt = 4
		options.HistSize = 10
		options.RetireAfter = 20
		return e, NewWFIT(e.opt, options)
	}
	eA, a := mk()
	eB, b := mk()

	drive := func(e *wfitEnv, w *WFIT, n int) {
		if (n/25)%2 == 0 {
			w.AnalyzeQuery(e.lineitemQuery(n, 0.001))
		} else {
			w.AnalyzeQuery(rotationQuery(n))
		}
	}
	names := func(e *wfitEnv, s index.Set) string { return s.Format(e.reg) }
	for n := 1; n <= 120; n++ {
		drive(eA, a, n)
		drive(eB, b, n)
		if n%40 == 0 {
			a.CompactRegistry()
		}
		if ra, rb := names(eA, a.Recommend()), names(eB, b.Recommend()); ra != rb {
			t.Fatalf("statement %d: recommendations diverged after compaction:\n  compacted: %s\n  reference: %s", n, ra, rb)
		}
	}
	if a.Retired() != b.Retired() {
		t.Errorf("retirement diverged: %d vs %d", a.Retired(), b.Retired())
	}
}
