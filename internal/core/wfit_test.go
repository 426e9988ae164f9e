package core

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ibg"
	"repro/internal/index"
	"repro/internal/interaction"
	"repro/internal/stmt"
	"repro/internal/whatif"
)

// wfitEnv bundles a small simulated DBMS for WFIT integration tests.
type wfitEnv struct {
	reg   *index.Registry
	model *cost.Model
	opt   *whatif.Optimizer
}

func newWFITEnv(t testing.TB) *wfitEnv {
	t.Helper()
	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	model := cost.NewModel(cat, reg, cost.DefaultParams())
	return &wfitEnv{reg: reg, model: model, opt: whatif.New(model)}
}

// lineitemQuery returns a selective single-table query.
func (e *wfitEnv) lineitemQuery(id int, sel float64) *stmt.Statement {
	return &stmt.Statement{
		ID: id, Kind: stmt.Query,
		Tables: []string{"tpch.lineitem"},
		Preds:  []stmt.Pred{{Table: "tpch.lineitem", Column: "l_shipdate", Selectivity: sel}},
	}
}

// tradeQuery returns a two-predicate query on tpce.trade.
func (e *wfitEnv) tradeQuery(id int) *stmt.Statement {
	return &stmt.Statement{
		ID: id, Kind: stmt.Query,
		Tables: []string{"tpce.trade"},
		Preds: []stmt.Pred{
			{Table: "tpce.trade", Column: "t_dts", Selectivity: 0.001},
			{Table: "tpce.trade", Column: "t_bid_price", Selectivity: 0.002},
		},
	}
}

// taxUpdate returns an update maintaining l_tax indexes.
func (e *wfitEnv) taxUpdate(id int) *stmt.Statement {
	return &stmt.Statement{
		ID: id, Kind: stmt.Update,
		Tables:     []string{"tpch.lineitem"},
		Preds:      []stmt.Pred{{Table: "tpch.lineitem", Column: "l_extendedprice", Selectivity: 0.0004}},
		SetColumns: []string{"l_shipdate"},
	}
}

func TestWFITCreatesIndexForRecurringQuery(t *testing.T) {
	e := newWFITEnv(t)
	w := NewWFIT(e.opt, DefaultOptions())
	for i := 1; i <= 6; i++ {
		w.AnalyzeQuery(e.lineitemQuery(i, 0.002))
	}
	rec := w.Recommend()
	found := false
	rec.Each(func(id index.ID) {
		def := e.reg.Get(id)
		if def.Table == "tpch.lineitem" && def.LeadingColumn() == "l_shipdate" {
			found = true
		}
	})
	if !found {
		t.Fatalf("no l_shipdate index recommended after recurring benefit: %v", rec.Format(e.reg))
	}
	if w.UniverseSize() == 0 || w.StatementsSeen() != 6 {
		t.Fatalf("bookkeeping wrong: universe=%d seen=%d", w.UniverseSize(), w.StatementsSeen())
	}
}

func TestWFITDropsIndexUnderUpdates(t *testing.T) {
	e := newWFITEnv(t)
	w := NewWFIT(e.opt, DefaultOptions())
	for i := 1; i <= 6; i++ {
		w.AnalyzeQuery(e.lineitemQuery(i, 0.002))
	}
	if w.Recommend().Empty() {
		t.Fatalf("setup failed: nothing recommended")
	}
	// A long run of updates writing l_shipdate must clear out any index
	// keyed on it (WFIT may legitimately keep or add indexes that help
	// the update's WHERE clause instead).
	hasShipdate := func(s index.Set) bool {
		found := false
		s.Each(func(id index.ID) {
			for _, c := range e.reg.Get(id).Columns {
				if c == "l_shipdate" {
					found = true
				}
			}
		})
		return found
	}
	for i := 7; i <= 60; i++ {
		w.AnalyzeQuery(e.taxUpdate(i))
		if !hasShipdate(w.Recommend()) {
			return
		}
	}
	t.Fatalf("maintained index survived 54 updates: %v", w.Recommend().Format(e.reg))
}

func TestWFITConsistencyAfterFeedback(t *testing.T) {
	e := newWFITEnv(t)
	w := NewWFIT(e.opt, DefaultOptions())
	for i := 1; i <= 4; i++ {
		w.AnalyzeQuery(e.tradeQuery(i))
	}
	rec := w.Recommend()
	if rec.Empty() {
		t.Fatalf("setup failed")
	}
	// Vote against everything currently recommended.
	w.Feedback(index.EmptySet, rec)
	if !w.Recommend().Empty() {
		t.Fatalf("negative votes not honored: %v", w.Recommend().Format(e.reg))
	}
	// Vote for an index WFIT has never seen: the partition must be
	// extended so consistency can hold.
	novel := e.reg.Intern(cost.BuildIndexProto(e.model.Catalog(), e.model.Params(),
		"nref.protein", []string{"mol_weight"}))
	w.Feedback(index.NewSet(novel), index.EmptySet)
	if !w.Recommend().Contains(novel) {
		t.Fatalf("positive vote for unknown index not honored")
	}
	if !w.Partition().Union().Contains(novel) {
		t.Fatalf("unknown index not added to the candidate partition")
	}
}

// fixedWFIT returns a WFIT whose WFA+ runs over partition. Tests feed
// statements to its WFA+ directly (analyzeFixed), bypassing candidate
// maintenance, so only repartition calls of their own move the partition.
func fixedWFIT(e *wfitEnv, partition interaction.Partition) *WFIT {
	w := NewWFIT(e.opt, DefaultOptions())
	w.repartition(partition)
	return w
}

// analyzeFixed feeds s to w's WFA+ through an IBG over the candidate set.
func analyzeFixed(e *wfitEnv, w *WFIT, s *stmt.Statement) {
	g := ibg.Build(e.opt, s, w.partsetC)
	w.plus.AnalyzeStatement(g)
	g.Release()
}

// TestWFITRepartitionPreservesRecommendations: repartitioning between two
// stable partitions must not change what WFIT recommends (the §5.2.1
// design property).
func TestWFITRepartitionPreservesRecommendations(t *testing.T) {
	e := newWFITEnv(t)
	ex := cost.NewExtractor(e.model)
	q := e.tradeQuery(0)
	cands := ex.Extract(q)

	// Two WFITs over the same candidates: one starts with singleton
	// parts, the other with one joint part. After the same statements,
	// explicitly repartition the first to the second's layout and compare
	// recommendations statement by statement.
	joint := interaction.Partition{cands}
	singles := interaction.Singletons(cands)

	a := fixedWFIT(e, singles)
	b := fixedWFIT(e, joint)
	for i := 1; i <= 8; i++ {
		s := e.tradeQuery(i)
		analyzeFixed(e, a, s)
		analyzeFixed(e, b, s)
	}
	before := a.Recommend()
	// Merge a's singleton parts into the joint layout.
	a.repartition(joint)
	if !a.Recommend().Equal(before) {
		t.Fatalf("repartition changed the recommendation: %v -> %v",
			before.Format(e.reg), a.Recommend().Format(e.reg))
	}
	// And the merged instance keeps agreeing with the always-joint one on
	// subsequent statements when the parts were genuinely independent...
	// (not guaranteed in general since singleton parts ignore real
	// interactions; here we only require the repartitioned instance to
	// remain functional).
	for i := 9; i <= 12; i++ {
		s := e.tradeQuery(i)
		analyzeFixed(e, a, s)
		analyzeFixed(e, b, s)
	}
	if a.Recommend().Empty() != b.Recommend().Empty() {
		t.Fatalf("post-repartition divergence in kind: %v vs %v",
			a.Recommend().Format(e.reg), b.Recommend().Format(e.reg))
	}
}

// TestWFITRepartitionSplitAndMergeRoundTrip merges singleton parts into a
// joint part and splits back; recommendations must survive both hops.
func TestWFITRepartitionSplitAndMergeRoundTrip(t *testing.T) {
	e := newWFITEnv(t)
	ex := cost.NewExtractor(e.model)
	cands := ex.Extract(e.tradeQuery(0))
	w := fixedWFIT(e, interaction.Singletons(cands))
	for i := 1; i <= 6; i++ {
		analyzeFixed(e, w, e.tradeQuery(i))
	}
	rec := w.Recommend()
	w.repartition(interaction.Partition{cands})
	if !w.Recommend().Equal(rec) {
		t.Fatalf("merge changed recommendation")
	}
	w.repartition(interaction.Singletons(cands))
	if !w.Recommend().Equal(rec) {
		t.Fatalf("split changed recommendation")
	}
}

func TestWFITHonorsStateBudget(t *testing.T) {
	e := newWFITEnv(t)
	opts := DefaultOptions()
	opts.StateCnt = 64
	opts.IdxCnt = 12
	w := NewWFIT(e.opt, opts)
	rng := rand.New(rand.NewSource(3))
	// A mixed workload to force candidate churn.
	for i := 1; i <= 40; i++ {
		switch rng.Intn(3) {
		case 0:
			w.AnalyzeQuery(e.tradeQuery(i))
		case 1:
			w.AnalyzeQuery(e.lineitemQuery(i, 0.001+rng.Float64()*0.01))
		default:
			w.AnalyzeQuery(e.taxUpdate(i))
		}
		p := w.Partition()
		if p.States() > opts.StateCnt {
			t.Fatalf("statement %d: %d states exceeds budget %d", i, p.States(), opts.StateCnt)
		}
		if p.Union().Len() > opts.IdxCnt {
			t.Fatalf("statement %d: %d candidates exceeds idxCnt %d",
				i, p.Union().Len(), opts.IdxCnt)
		}
		if !p.Validate() {
			t.Fatalf("statement %d: invalid partition", i)
		}
	}
}

func TestWFITMaterializedAlwaysCovered(t *testing.T) {
	e := newWFITEnv(t)
	opts := DefaultOptions()
	opts.IdxCnt = 6 // tight budget to force eviction pressure
	w := NewWFIT(e.opt, opts)
	for i := 1; i <= 5; i++ {
		w.AnalyzeQuery(e.tradeQuery(i))
	}
	mat := w.Recommend()
	if mat.Empty() {
		t.Fatalf("setup failed")
	}
	w.SetMaterialized(mat)
	// Shift the workload entirely; materialized indices must stay
	// covered by the partition no matter what.
	for i := 6; i <= 30; i++ {
		w.AnalyzeQuery(e.lineitemQuery(i, 0.001))
		if !mat.SubsetOf(w.Partition().Union()) {
			t.Fatalf("statement %d: materialized set not covered by partition", i)
		}
	}
}

func TestWFITInterfaceCompliance(t *testing.T) {
	e := newWFITEnv(t)
	ex := cost.NewExtractor(e.model)
	cands := ex.Extract(e.tradeQuery(0))
	plus := NewWFAPlus(e.reg, interaction.Singletons(cands), index.EmptySet)
	// WFAPlus must be drivable through the priced-statement surface the
	// experiment harness's WFA+ adapter uses (AnalyzeStatement, then
	// Recommend) with an IBG as StatementCost.
	var tn interface {
		AnalyzeStatement(sc StatementCost)
		Recommend() index.Set
	} = plus
	q := e.tradeQuery(1)
	g := ibg.Build(e.opt, q, cands)
	tn.AnalyzeStatement(g)
	_ = tn.Recommend()
}
