package cost

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/stmt"
	"repro/internal/workload"
)

// checkPrepared prices s under the empty mask, the full mask, and random
// masks, or every mask when there are no more of them than that, both
// through Prepare(s, ids).CostMask and through CostUsed, and fails on any
// difference in the cost's bits or in the used set. It returns how many
// configurations it compared.
func checkPrepared(t *testing.T, m *Model, s *stmt.Statement, ids []index.ID, random int, rng *rand.Rand) int {
	t.Helper()
	p := m.Prepare(s, ids)
	full := uint64(1)<<len(ids) - 1
	masks := []uint64{0, full}
	if full < uint64(random)+2 {
		for mask := uint64(1); mask < full; mask++ {
			masks = append(masks, mask)
		}
	} else {
		for k := 0; k < random; k++ {
			// Densities of 1/4, 1/2 and 3/4 reach both sparse and full
			// plans.
			mask := rng.Uint64()
			switch k % 3 {
			case 0:
				mask &= rng.Uint64()
			case 2:
				mask |= rng.Uint64()
			}
			masks = append(masks, mask&full)
		}
	}
	for _, mask := range masks {
		var cfg []index.ID
		for rest := mask; rest != 0; rest &= rest - 1 {
			cfg = append(cfg, ids[bits.TrailingZeros64(rest)])
		}
		want, wantUsed := m.CostUsed(s, index.NewSet(cfg...))
		got, gotUsed := p.CostMask(mask)
		var used []index.ID
		for rest := gotUsed; rest != 0; rest &= rest - 1 {
			used = append(used, ids[bits.TrailingZeros64(rest)])
		}
		if math.Float64bits(got) != math.Float64bits(want) || !index.NewSet(used...).Equal(wantUsed) {
			t.Fatalf("%s, mask %#x: CostMask = %v used %v, CostUsed = %v used %v",
				s.Summary(), mask, got, used, want, wantUsed)
		}
	}
	return len(masks)
}

// TestPreparedMatchesCostUsed holds Prepared.CostMask to its definition,
// CostUsed, bit for bit: on generated workloads priced over the candidates
// mined so far, as an index benefit graph prices them, and on hand-built
// statements of the shapes the generator never emits.
func TestPreparedMatchesCostUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, profile := range []string{"", workload.ProfileWriteHeavy, workload.ProfileAdhoc, workload.ProfileHTAP} {
		cat, joins := datagen.Build()
		m := NewModel(cat, index.NewRegistry(), DefaultParams())
		ex := NewExtractor(m)
		wo := workload.DefaultOptions()
		wo.Profile = profile
		wo.Phases = 3
		mined := index.EmptySet
		stmts, configs := 0, 0
		for _, s := range workload.Generate(cat, joins, wo).Statements {
			mined = mined.Union(ex.Extract(s))
			ids := m.RestrictConfig(s, mined).IDs()
			if len(ids) > 64 {
				ids = ids[:64]
			}
			configs += checkPrepared(t, m, s, ids, 58, rng)
			stmts++
		}
		t.Logf("profile %q: %d configurations of %d statements", profile, configs, stmts)
	}

	for _, c := range preparedShapes() {
		t.Run(c.name, func(t *testing.T) {
			cat, _ := datagen.Build()
			m := NewModel(cat, index.NewRegistry(), DefaultParams())
			for _, proto := range c.indexes {
				if len(proto.Columns) > 0 && cat.MustTable(proto.Table).HasColumn(proto.Columns[0]) {
					proto = BuildIndexProto(cat, m.Params(), proto.Table, proto.Columns)
				}
				m.Registry().Intern(proto)
			}
			all := make([]index.ID, m.Registry().Len())
			for i := range all {
				all[i] = index.ID(i + 1)
			}
			ids := m.RestrictConfig(c.s, index.NewSet(all...)).IDs()
			if len(ids) != c.relevant {
				t.Fatalf("%d relevant candidates, want %d", len(ids), c.relevant)
			}
			checkPrepared(t, m, c.s, ids, 2000, rng)
		})
	}
}

// preparedShape is a hand-built statement with the candidate indices to
// price it over. An index whose leading column the catalog lacks is
// interned as given instead of sized by BuildIndexProto.
type preparedShape struct {
	name     string
	s        *stmt.Statement
	indexes  []index.Index
	relevant int
}

func ix(table string, cols ...string) index.Index {
	return index.Index{Table: table, Columns: cols, LeafPages: 100, Height: 2}
}

func join(lt, lc, rt, rc string) stmt.Join {
	return stmt.Join{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc}
}

func pred(table, col string, sel float64, eq bool) stmt.Pred {
	return stmt.Pred{Table: table, Column: col, Selectivity: sel, Eq: eq}
}

const (
	li = "tpch.lineitem"
	or = "tpch.orders"
	cu = "tpch.customer"
	na = "tpch.nation"
	re = "tpch.region"
	su = "tpch.supplier"
	pa = "tpch.part"
)

// chainJoins joins lineitem, orders, customer, nation, region and
// supplier along TPC-H's foreign keys.
var chainJoins = []stmt.Join{
	join(li, "l_orderkey", or, "o_orderkey"),
	join(or, "o_custkey", cu, "c_custkey"),
	join(cu, "c_nationkey", na, "n_nationkey"),
	join(na, "n_regionkey", re, "r_regionkey"),
	join(li, "l_suppkey", su, "s_suppkey"),
	join(su, "s_nationkey", na, "n_nationkey"),
}

// chainIndexes are candidates for every table of the chain: probe
// indices on each join column, with and without a trailing predicate
// column, and scan indices on the predicate columns.
var chainIndexes = []index.Index{
	ix(li, "l_orderkey"), ix(li, "l_orderkey", "l_shipdate"), ix(li, "l_shipdate"),
	ix(li, "l_suppkey"), ix(li, "l_extendedprice"),
	ix(or, "o_orderkey"), ix(or, "o_custkey"), ix(or, "o_orderdate"), ix(or, "o_orderdate", "o_custkey"),
	ix(cu, "c_custkey"), ix(cu, "c_nationkey"), ix(cu, "c_mktsegment"),
	ix(na, "n_nationkey"), ix(na, "n_regionkey"),
	ix(re, "r_regionkey"), ix(re, "r_name"),
	ix(su, "s_suppkey"), ix(su, "s_nationkey"), ix(su, "s_acctbal"),
}

var chainPreds = []stmt.Pred{
	pred(li, "l_shipdate", 0.01, false),
	pred(li, "l_extendedprice", 0.05, false),
	pred(or, "o_orderdate", 0.02, false),
	pred(cu, "c_mktsegment", 0.2, true),
	pred(re, "r_name", 0.2, true),
	pred(su, "s_acctbal", 0.3, false),
}

// chainQuery is a query over the given chain tables with their predicates
// and joins.
func chainQuery(tables ...string) *stmt.Statement {
	s := &stmt.Statement{Kind: stmt.Query, Tables: tables}
	in := func(t string) bool { return s.HasTable(t) }
	for _, p := range chainPreds {
		if in(p.Table) {
			s.Preds = append(s.Preds, p)
		}
	}
	for _, j := range chainJoins {
		if in(j.LeftTable) && in(j.RightTable) {
			s.Joins = append(s.Joins, j)
		}
	}
	return s
}

func countOn(idx []index.Index, tables ...string) int {
	n := 0
	for _, x := range idx {
		for _, t := range tables {
			if x.Table == t {
				n++
			}
		}
	}
	return n
}

func preparedShapes() []preparedShape {
	var shapes []preparedShape
	chain := func(name string, tables ...string) {
		shapes = append(shapes, preparedShape{
			name: name, s: chainQuery(tables...),
			indexes: chainIndexes, relevant: countOn(chainIndexes, tables...),
		})
	}
	chain("four tables", li, or, cu, na)
	chain("five tables", li, or, cu, na, re)
	chain("six tables", li, or, cu, na, re, su)
	chain("seven tables, listed order disconnected", re, li, su, or, pa, cu, na)

	// No connected order: part joins nothing, and one join names a table
	// the statement does not list.
	noOrder := chainQuery(li, or, pa)
	noOrder.Preds = append(noOrder.Preds, pred(pa, "p_size", 0.02, true))
	noOrder.Joins = append(noOrder.Joins, join(pa, "p_partkey", "tpch.partsupp", "ps_partkey"))
	shapes = append(shapes, preparedShape{
		name: "no connected order", s: noOrder,
		indexes:  append(chainIndexes[:9:9], ix(pa, "p_size"), ix(pa, "p_partkey")),
		relevant: 11,
	})

	// A join column the catalog lacks: an index leads with it, but no
	// probe can use it, and the join's distinct count falls back to 1.
	missing := chainQuery(li, or)
	missing.Joins = []stmt.Join{join(li, "l_ghostkey", or, "o_orderkey")}
	shapes = append(shapes, preparedShape{
		name: "join column not in catalog", s: missing,
		indexes:  append(chainIndexes[:9:9], ix(li, "l_ghostkey"), ix(li, "l_ghostkey", "l_shipdate")),
		relevant: 11,
	})

	upd := func(name string, set []string, idx []index.Index) {
		shapes = append(shapes, preparedShape{
			name: name,
			s: &stmt.Statement{
				Kind: stmt.Update, Tables: []string{li},
				Preds:      []stmt.Pred{pred(li, "l_extendedprice", 0.0005, false), pred(li, "l_shipdate", 0.01, false)},
				SetColumns: set,
			},
			indexes: idx, relevant: countOn(idx, li),
		})
	}
	updIndexes := []index.Index{
		ix(li, "l_extendedprice"), ix(li, "l_shipdate"), ix(li, "l_tax"), ix(li, "l_tax", "l_shipdate"),
		ix(li, "l_shipdate", "l_extendedprice"), ix(li, "l_quantity"), ix(or, "o_orderdate"),
	}
	upd("update with maintained indices", []string{"l_tax", "l_shipdate"}, updIndexes)
	upd("update without maintained indices", []string{"l_linestatus"}, updIndexes)

	// Equal-cost twins: each pair shares its leading column, key width and
	// coverage, so only the lower ID may win a scan, a probe or an
	// intersection.
	twins := chainQuery(li, or)
	twins.Output = []stmt.OutputCol{{Table: li, Column: "l_quantity"}}
	shapes = append(shapes, preparedShape{
		name: "equal-cost twins", s: twins,
		indexes: []index.Index{
			ix(li, "l_shipdate", "l_commitdate"), ix(li, "l_shipdate", "l_receiptdate"),
			ix(li, "l_extendedprice", "l_commitdate"), ix(li, "l_extendedprice", "l_receiptdate"),
			ix(li, "l_orderkey", "l_commitdate"), ix(li, "l_orderkey", "l_receiptdate"),
			ix(or, "o_orderkey", "o_totalprice"), ix(or, "o_orderkey", "o_custkey", "o_shippriority"),
			ix(or, "o_orderdate"),
		},
		relevant: 9,
	})

	// A 64-index top: every single column and pair prefix of lineitem
	// that fits, plus orders' join and predicate indices.
	var wide []index.Index
	licols := []string{"l_shipdate", "l_extendedprice", "l_quantity", "l_shipmode", "l_orderkey",
		"l_partkey", "l_suppkey", "l_linenumber", "l_discount", "l_tax", "l_commitdate",
		"l_receiptdate", "l_returnflag", "l_linestatus"}
	for _, c := range licols {
		wide = append(wide, ix(li, c))
	}
	for i := 0; i < len(licols) && len(wide) < 60; i++ {
		for j := i + 1; j < len(licols) && len(wide) < 60; j++ {
			wide = append(wide, ix(li, licols[i], licols[j]))
		}
	}
	wide = append(wide, ix(or, "o_orderkey"), ix(or, "o_orderdate"), ix(or, "o_orderkey", "o_orderdate"), ix(or, "o_custkey"))
	wideQ := chainQuery(li, or)
	wideQ.Preds = append(wideQ.Preds, pred(li, "l_quantity", 0.1, false), pred(li, "l_shipmode", 0.14, true))
	shapes = append(shapes, preparedShape{name: "64-index top", s: wideQ, indexes: wide, relevant: 64})
	return shapes
}

// TestPrepareRejectsMisuse checks Prepare's preconditions: at most 64
// candidates, in ascending order.
func TestPrepareRejectsMisuse(t *testing.T) {
	m, _, _ := newTestModel(t)
	q := selQuery(li, "l_shipdate", 0.01)
	a, b := mkIndex(m, li, "l_shipdate"), mkIndex(m, li, "l_tax")
	for _, ids := range [][]index.ID{{b, a}, make([]index.ID, 65)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Prepare(%v) did not panic", ids)
				}
			}()
			m.Prepare(q, ids)
		}()
	}
}
