package whatif

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/stmt"
)

func setup(t testing.TB) (*Optimizer, index.ID, index.ID) {
	t.Helper()
	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	m := cost.NewModel(cat, reg, cost.DefaultParams())
	ship := reg.Intern(cost.BuildIndexProto(cat, m.Params(), "tpch.lineitem", []string{"l_shipdate"}))
	trade := reg.Intern(cost.BuildIndexProto(cat, m.Params(), "tpce.trade", []string{"t_dts"}))
	return New(m), ship, trade
}

func query() *stmt.Statement {
	return &stmt.Statement{
		ID: 1, Kind: stmt.Query,
		Tables: []string{"tpch.lineitem"},
		Preds:  []stmt.Pred{{Table: "tpch.lineitem", Column: "l_shipdate", Selectivity: 0.01}},
	}
}

func TestIrrelevantIndexSharesCacheEntry(t *testing.T) {
	o, ship, trade := setup(t)
	q := query()
	c1, used1 := o.CostUsed(q, index.NewSet(ship))
	// An index on a table q does not access changes neither the cost
	// nor the plan's used set.
	c2, used2 := o.CostUsed(q, index.NewSet(ship, trade))
	if c1 != c2 || !used1.Equal(used2) {
		t.Fatalf("irrelevant index changed the answer: %v %v vs %v %v", c1, used1, c2, used2)
	}
}

func TestDistinctStatementsDistinctEntries(t *testing.T) {
	o, ship, _ := setup(t)
	q1, q2 := query(), query()
	q2.Preds[0].Selectivity = 0.05
	o.Cost(q1, index.NewSet(ship))
	o.Cost(q2, index.NewSet(ship))
	if o.Calls() != 2 {
		t.Fatalf("different statements shared an entry: calls=%d", o.Calls())
	}
}

func TestCostUsedConsistent(t *testing.T) {
	o, ship, _ := setup(t)
	q := query()
	c, used := o.CostUsed(q, index.NewSet(ship))
	if !used.Contains(ship) {
		t.Fatalf("selective index unused: %v", used)
	}
	if c != o.Cost(q, index.NewSet(ship)) {
		t.Fatalf("Cost and CostUsed disagree")
	}
}

func TestResetStats(t *testing.T) {
	o, ship, _ := setup(t)
	o.Cost(query(), index.NewSet(ship))
	o.ResetStats()
	if o.Calls() != 0 {
		t.Fatalf("ResetStats left calls=%d", o.Calls())
	}
	o.Cost(query(), index.NewSet(ship))
	if o.Calls() != 1 {
		t.Fatalf("calls=%d after one probe past ResetStats", o.Calls())
	}
}

func TestConcurrentProbesConsistent(t *testing.T) {
	o, ship, trade := setup(t)
	q := query()
	cfgs := []index.Set{
		index.EmptySet,
		index.NewSet(ship),
		index.NewSet(trade),
		index.NewSet(ship, trade),
	}
	want := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = o.Model().Cost(q, o.Model().RestrictConfig(q, cfg))
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (seed + i) % len(cfgs)
				if got := o.Cost(q, cfgs[k]); got != want[k] {
					errs <- fmt.Sprintf("cfg %d: got %v want %v", k, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if o.Calls() != 8*500 {
		t.Fatalf("probe accounting lost events: calls=%d", o.Calls())
	}
}
