package ibg

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/stmt"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// testSetup builds the shared catalog, model, optimizer, and a pool of
// interned indices for IBG tests.
func testSetup(t testing.TB) (*whatif.Optimizer, *cost.Model, []index.ID) {
	t.Helper()
	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	m := cost.NewModel(cat, reg, cost.DefaultParams())
	mk := func(table string, cols ...string) index.ID {
		return reg.Intern(cost.BuildIndexProto(cat, m.Params(), table, cols))
	}
	ids := []index.ID{
		mk("tpch.lineitem", "l_shipdate"),
		mk("tpch.lineitem", "l_extendedprice"),
		mk("tpch.lineitem", "l_orderkey"),
		mk("tpch.lineitem", "l_orderkey", "l_shipdate"),
		mk("tpch.orders", "o_orderdate"),
		mk("tpch.orders", "o_orderkey"),
		mk("tpce.trade", "t_dts"), // irrelevant to the test statements
	}
	return whatif.New(m), m, ids
}

func joinQuery() *stmt.Statement {
	return &stmt.Statement{
		ID: 1, Kind: stmt.Query,
		Tables: []string{"tpch.orders", "tpch.lineitem"},
		Preds: []stmt.Pred{
			{Table: "tpch.orders", Column: "o_orderdate", Selectivity: 0.002},
			{Table: "tpch.lineitem", Column: "l_shipdate", Selectivity: 0.008},
			{Table: "tpch.lineitem", Column: "l_extendedprice", Selectivity: 0.02},
		},
		Joins: []stmt.Join{{
			LeftTable: "tpch.lineitem", LeftColumn: "l_orderkey",
			RightTable: "tpch.orders", RightColumn: "o_orderkey",
		}},
	}
}

func updateStmt() *stmt.Statement {
	return &stmt.Statement{
		ID: 2, Kind: stmt.Update,
		Tables:     []string{"tpch.lineitem"},
		Preds:      []stmt.Pred{{Table: "tpch.lineitem", Column: "l_extendedprice", Selectivity: 0.0005}},
		SetColumns: []string{"l_tax", "l_shipdate"},
	}
}

// TestIBGCostMatchesWhatIf is the central contract: for any subset of
// the candidates, the IBG lookup must equal a direct what-if optimization
// bit for bit. Besides the hand-built join and update, whose graphs are
// narrow, it checks every untruncated generated graph wider than
// exactEnumBits.
func TestIBGCostMatchesWhatIf(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	check := func(o *whatif.Optimizer, s *stmt.Statement, g *Graph, cands []index.ID) {
		for trial := 0; trial < 200; trial++ {
			var sub []index.ID
			for _, id := range cands {
				if rng.Intn(2) == 0 {
					sub = append(sub, id)
				}
			}
			cfg := index.NewSet(sub...)
			if got, want := g.Cost(cfg), o.Model().Cost(s, cfg); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stmt %d cfg %v: IBG=%v direct=%v", s.ID, cfg, got, want)
			}
		}
	}
	opt, _, ids := testSetup(t)
	for _, s := range []*stmt.Statement{joinQuery(), updateStmt()} {
		check(opt, s, Build(opt, s, index.NewSet(ids...)), ids)
	}
	wide := 0
	for _, profile := range []string{"", workload.ProfileAdhoc} {
		generatedGraphs(profile, func(o *whatif.Optimizer, s *stmt.Statement, cands index.Set, g *Graph) bool {
			if g.UsedUnion().Len() > exactEnumBits && !g.Truncated() {
				check(o, s, g, cands.IDs())
				wide++
			}
			g.Release()
			return true
		})
	}
	if wide == 0 {
		t.Fatalf("no generated graph is wider than %d used indices", exactEnumBits)
	}
	t.Logf("%d wide generated graphs", wide)
}

// generatedGraphs walks the first two phases of a workload generated with
// the given profile, mining candidates as it goes, and passes keep each
// statement with the candidates mined up to it and its graph over them,
// until keep returns false.
func generatedGraphs(profile string, keep func(o *whatif.Optimizer, s *stmt.Statement, cands index.Set, g *Graph) bool) {
	cat, joins := datagen.Build()
	m := cost.NewModel(cat, index.NewRegistry(), cost.DefaultParams())
	o := whatif.New(m)
	wo := workload.DefaultOptions()
	wo.Profile = profile
	wo.Phases = 2
	ex := cost.NewExtractor(m)
	mined := index.EmptySet
	for _, s := range workload.Generate(cat, joins, wo).Statements {
		mined = mined.Union(ex.Extract(s))
		if !keep(o, s, mined, Build(o, s, mined)) {
			return
		}
	}
}

// TestUsedUnionCappedAt32 builds graphs whose used unions would exceed the
// 32 bits of a probe mask: ad-hoc statements over every candidate mined so
// far. Each such graph keeps 32 used indices and reports itself truncated,
// every child link drops the kept index it is filed under, and the first
// one prices every configuration that holds all the indices it dropped
// exactly as a direct what-if optimization does, bit for bit. Graphs cut
// at MaxNodes are skipped, since they price only approximately anyway.
//
// The same walk holds the build over more than 64 relevant candidates,
// which takes the set path instead of a cost.Prepared and prices every
// node with CostUsed, to the same contract: the first three such graphs
// that are not truncated price every configuration bit for bit.
func TestUsedUnionCappedAt32(t *testing.T) {
	cat, joins := datagen.Build()
	m := cost.NewModel(cat, index.NewRegistry(), cost.DefaultParams())
	o := whatif.New(m)
	wo := workload.DefaultOptions()
	wo.Profile = workload.ProfileAdhoc
	wo.Phases = 4
	wo.QueryTemplates = 200
	ex := cost.NewExtractor(m)
	mined := index.EmptySet
	rng := rand.New(rand.NewSource(33))
	// checkSubsets compares g with direct optimizations on 200 random
	// subsets of its top, each joined with always.
	checkSubsets := func(s *stmt.Statement, g *Graph, always index.Set) {
		top := g.Top().IDs()
		for trial := 0; trial < 200; trial++ {
			var sub []index.ID
			for _, id := range top {
				if rng.Intn(2) == 0 {
					sub = append(sub, id)
				}
			}
			cfg := index.NewSet(sub...).Union(always)
			if got, want := g.Cost(cfg), m.Cost(s, cfg); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stmt %d cfg %v: IBG=%v direct=%v", s.ID, cfg, got, want)
			}
		}
	}
	capped, setPath := false, 0
	for _, s := range workload.Generate(cat, joins, wo).Statements {
		if s.Kind != stmt.Query {
			continue
		}
		mined = mined.Union(ex.Extract(s))
		relevant := m.RestrictConfig(s, mined).Len()
		if relevant <= maxUsedBits || capped && relevant <= 64 {
			continue // too few relevant candidates to need the cap, or no graph left to find
		}
		g := Build(o, s, mined)
		if n := g.UsedUnion().Len(); n > maxUsedBits {
			t.Fatalf("stmt %d: %d used indices, more than a probe mask holds", s.ID, n)
		}
		switch {
		case !g.Truncated():
			if relevant > 64 && setPath < 3 {
				checkSubsets(s, g, index.EmptySet)
				setPath++
			}
		case g.NodeCount() < MaxNodes:
			if n := g.UsedUnion().Len(); n != maxUsedBits {
				t.Fatalf("stmt %d: truncated below MaxNodes with %d used indices", s.ID, n)
			}
			for i := range g.nodes {
				for p, child := range g.nodes[i].children {
					if child != nil && child.cfgMask != g.nodes[i].cfgMask&^(1<<p) {
						t.Fatalf("stmt %d node %d: child link %d does not drop used index %d", s.ID, i, p, p)
					}
				}
			}
			if !capped {
				checkSubsets(s, g, g.Top().Minus(g.UsedUnion()))
				capped = true
			}
		}
		g.Release()
		if capped && setPath == 3 {
			return
		}
	}
	t.Fatalf("found %t for a graph capped at %d used indices and %d of 3 untruncated graphs over more than 64 candidates", capped, maxUsedBits, setPath)
}

func TestIBGTopRestrictedToRelevant(t *testing.T) {
	opt, m, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	reg := m.Registry()
	g.Top().Each(func(id index.ID) {
		if tbl := reg.Get(id).Table; tbl != "tpch.orders" && tbl != "tpch.lineitem" {
			t.Errorf("irrelevant index %v in IBG top", reg.Get(id))
		}
	})
	if g.NodeCount() == 0 {
		t.Fatalf("empty IBG")
	}
}

// TestIBGNodeCountIsWhatIfCalls verifies the overhead accounting: every
// build of a graph performs exactly NodeCount optimizer calls.
func TestIBGNodeCountIsWhatIfCalls(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	opt.ResetStats()
	g := Build(opt, q, index.NewSet(ids...))
	if got, want := opt.Calls(), int64(g.NodeCount()); got != want {
		t.Fatalf("what-if calls = %d, nodes = %d", got, want)
	}
	opt.ResetStats()
	_ = Build(opt, q, index.NewSet(ids...))
	if got, want := opt.Calls(), int64(g.NodeCount()); got != want {
		t.Fatalf("rebuild: what-if calls = %d, nodes = %d", got, want)
	}
}

// TestDOISymmetry checks doi(a,b) == doi(b,a) (Section 2 notes this
// follows from the definition).
func TestDOISymmetry(t *testing.T) {
	opt, _, ids := testSetup(t)
	for _, s := range []*stmt.Statement{joinQuery(), updateStmt()} {
		g := Build(opt, s, index.NewSet(ids...))
		used := g.UsedUnion().IDs()
		for i := 0; i < len(used); i++ {
			for j := i + 1; j < len(used); j++ {
				ab := g.DOI(used[i], used[j])
				ba := g.DOI(used[j], used[i])
				if math.Abs(ab-ba) > 1e-9 {
					t.Fatalf("doi asymmetric: %v vs %v", ab, ba)
				}
			}
		}
	}
}

// TestDOIDetectsIntersectionInteraction: two single-column indices on the
// same table that can be intersected must have positive doi.
func TestDOIDetectsIntersectionInteraction(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	// ids[0] = lineitem(l_shipdate), ids[1] = lineitem(l_extendedprice).
	if !g.UsedUnion().Contains(ids[0]) || !g.UsedUnion().Contains(ids[1]) {
		t.Skipf("intersection candidates unused in this plan space")
	}
	if d := g.DOI(ids[0], ids[1]); d <= 0 {
		t.Fatalf("expected positive doi for intersectable indices, got %v", d)
	}
}

func TestDOIZeroForUnusedIndex(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	unused := ids[6] // tpce.trade index, irrelevant
	for _, other := range ids[:6] {
		if d := g.DOI(unused, other); d != 0 {
			t.Fatalf("unused index has doi %v with %v", d, other)
		}
	}
	if g.DOI(ids[0], ids[0]) != 0 {
		t.Fatalf("doi(a,a) must be 0")
	}
}

// TestMaxBenefitMatchesEnumeration compares MaxBenefit against brute-force
// maximization over all contexts.
func TestMaxBenefitMatchesEnumeration(t *testing.T) {
	opt, m, ids := testSetup(t)
	for _, s := range []*stmt.Statement{joinQuery(), updateStmt()} {
		g := Build(opt, s, index.NewSet(ids...))
		relevant := g.Top().IDs()
		for _, a := range g.UsedUnion().IDs() {
			want := math.Inf(-1)
			rest := index.NewSet(relevant...).Remove(a)
			forEachSubset(rest, func(x index.Set) {
				b := m.Cost(s, x) - m.Cost(s, x.Add(a))
				if b > want {
					want = b
				}
			})
			got := g.MaxBenefit(a)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("stmt %d MaxBenefit(%v) = %v, brute force = %v", s.ID, a, got, want)
			}
		}
	}
}

func forEachSubset(s index.Set, visit func(index.Set)) {
	ids := s.IDs()
	for mask := 0; mask < 1<<len(ids); mask++ {
		var cur []index.ID
		for i := range ids {
			if mask&(1<<i) != 0 {
				cur = append(cur, ids[i])
			}
		}
		visit(index.NewSet(cur...))
	}
}

// TestDOIMatchesEnumeration compares the IBG doi against brute force over
// the full relevant context space.
func TestDOIMatchesEnumeration(t *testing.T) {
	opt, m, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	used := g.UsedUnion().IDs()
	relevant := index.NewSet(g.Top().IDs()...)
	for i := 0; i < len(used); i++ {
		for j := i + 1; j < len(used); j++ {
			a, b := used[i], used[j]
			want := 0.0
			ctx := relevant.Remove(a).Remove(b)
			forEachSubset(ctx, func(x index.Set) {
				v := math.Abs(m.Cost(q, x) - m.Cost(q, x.Add(a)) -
					m.Cost(q, x.Add(b)) + m.Cost(q, x.Add(a).Add(b)))
				if v > want {
					want = v
				}
			})
			got := g.DOI(a, b)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("DOI(%v,%v) = %v, brute force = %v", a, b, got, want)
			}
		}
	}
}

// TestBenefitSign: benefits are positive for helpful indices on queries
// and negative for maintained indices on updates.
func TestBenefitSign(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	only := index.NewSet(ids[0])
	if b := g.Cost(index.EmptySet) - g.Cost(only); b <= 0 {
		t.Fatalf("selective index benefit = %v, want > 0", b)
	}
	u := updateStmt()
	gu := Build(opt, u, index.NewSet(ids...))
	// ids[0] = lineitem(l_shipdate): l_shipdate is modified, so the index
	// must be maintained; without helping the WHERE clause its benefit is
	// negative.
	if b := gu.Cost(index.EmptySet) - gu.Cost(only); b >= 0 {
		t.Fatalf("maintained index benefit = %v, want < 0", b)
	}
}

func TestInteractionsDeterministicOrder(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	first := g.Interactions(0)
	second := g.Interactions(0)
	if len(first) != len(second) {
		t.Fatalf("non-deterministic interaction count")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic interaction order at %d", i)
		}
		if first[i].A >= first[i].B {
			t.Fatalf("interaction pair not normalized: %+v", first[i])
		}
	}
}

func TestEmptyCandidates(t *testing.T) {
	opt, m, _ := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.EmptySet)
	if g.NodeCount() != 1 {
		t.Fatalf("empty-candidate IBG has %d nodes", g.NodeCount())
	}
	if got, want := g.Cost(index.EmptySet), m.Cost(q, index.EmptySet); got != want {
		t.Fatalf("empty-configuration cost = %v, want %v", got, want)
	}
}

// TestStatisticsMatchesDefinitions checks Statistics bit for bit against
// the per-index MaxBenefit and pairwise DOI on every wide generated graph
// of both profiles (every twentieth under the race detector) and on the
// first three narrow ones. The reference is computed after Release: the
// graph then has no cost table, and every term of MaxBenefit and DOI is a
// find walk, independent of the table Statistics read. Statistics on the
// released wide graph must give the same results.
func TestStatisticsMatchesDefinitions(t *testing.T) {
	const threshold = 1e-6
	check := func(s *stmt.Statement, g *Graph) {
		t.Helper()
		benefits, interactions := g.Statistics(threshold)
		g.Release()
		used := g.UsedUnion().IDs()
		wantB := make([]float64, len(used))
		var wantIn []Interaction
		for i, a := range used {
			wantB[i] = g.MaxBenefit(a)
			for j := i + 1; j < len(used); j++ {
				if d := g.DOI(a, used[j]); d > threshold {
					wantIn = append(wantIn, Interaction{A: a, B: used[j], Doi: d})
				}
			}
		}
		compare := func(pass string, benefits []float64, interactions []Interaction) {
			t.Helper()
			if err := diffStatistics(used, wantB, wantIn, benefits, interactions); err != nil {
				t.Fatalf("stmt %d, %s: %v", s.ID, pass, err)
			}
		}
		compare("cost table", benefits, interactions)
		if len(used) > exactEnumBits {
			bR, inR := g.Statistics(threshold)
			compare("released", bR, inR)
		}
	}
	wide, narrow := 0, 0
	for _, profile := range []string{"", workload.ProfileAdhoc} {
		generatedGraphs(profile, func(_ *whatif.Optimizer, s *stmt.Statement, _ index.Set, g *Graph) bool {
			if len(g.usedIDs) > exactEnumBits {
				if wide++; !raceEnabled || wide%20 == 1 {
					check(s, g)
				}
			} else if narrow < 3 {
				check(s, g)
				narrow++
			}
			g.Release()
			return true
		})
	}
	if wide == 0 {
		t.Fatalf("no generated graph has a used union wider than %d: the node-context pass went untested", exactEnumBits)
	}
	t.Logf("%d wide generated graphs", wide)
}

// diffStatistics reports the first difference, bit for bit, between the
// statistics want and got of a graph with the given used union, or nil.
func diffStatistics(used []index.ID, wantB []float64, wantIn []Interaction, gotB []float64, gotIn []Interaction) error {
	if len(gotB) != len(wantB) || len(gotIn) != len(wantIn) {
		return fmt.Errorf("%d benefits and %d interactions, want %d and %d", len(gotB), len(gotIn), len(wantB), len(wantIn))
	}
	for i := range wantB {
		if math.Float64bits(gotB[i]) != math.Float64bits(wantB[i]) {
			return fmt.Errorf("benefit of %d is %v, want %v", used[i], gotB[i], wantB[i])
		}
	}
	for k := range wantIn {
		if got := gotIn[k]; got.A != wantIn[k].A || got.B != wantIn[k].B ||
			math.Float64bits(got.Doi) != math.Float64bits(wantIn[k].Doi) {
			return fmt.Errorf("interaction %d is %+v, want %+v", k, got, wantIn[k])
		}
	}
	return nil
}

// TestFillCostsMatchesFind holds the cost table Build fills to find, bit
// for bit on every mask, on every generated graph of both profiles with at
// most memoMaxBits used indices, and on the graphs of more than
// exactEnumBits relevant candidates, up to memoMaxBits, that the ad-hoc
// stream of 200 query templates cuts at MaxNodes. All of those graphs must
// have the shape checkShape asserts. Random graphs of that shape then start
// the walk at any node on a subcube with some bits already known: present
// ones anywhere, absent ones only outside the node's configuration, as on
// a walk down from the root. Every mask of the subcube must get the cost
// find reaches from that node, and no other mask may be written.
func TestFillCostsMatchesFind(t *testing.T) {
	check := func(name string, g *Graph) {
		t.Helper()
		checkShape(t, name, g)
		if g.memo == nil {
			return
		}
		for m, v := range g.memo.vals {
			if want := g.find(uint32(m)).cost; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s mask %b: table %v, find %v", name, m, v, want)
			}
		}
	}
	tabled := 0
	for _, profile := range []string{"", workload.ProfileAdhoc} {
		generatedGraphs(profile, func(_ *whatif.Optimizer, s *stmt.Statement, _ index.Set, g *Graph) bool {
			check(fmt.Sprintf("stmt %d", s.ID), g)
			if len(g.usedIDs) > exactEnumBits && g.memo != nil {
				tabled++
			}
			g.Release()
			return true
		})
	}

	// Only statements whose relevant candidates fit memoMaxBits are built:
	// the stream's wider graphs are slow to build and have no table.
	cat, joins := datagen.Build()
	m := cost.NewModel(cat, index.NewRegistry(), cost.DefaultParams())
	o := whatif.New(m)
	wo := workload.DefaultOptions()
	wo.Profile, wo.Phases, wo.QueryTemplates = workload.ProfileAdhoc, 4, 200
	ex := cost.NewExtractor(m)
	mined := index.EmptySet
	truncated := 0
	for _, s := range workload.Generate(cat, joins, wo).Statements {
		mined = mined.Union(ex.Extract(s))
		if r := m.RestrictConfig(s, mined).Len(); r <= exactEnumBits || r > memoMaxBits {
			continue
		}
		g := Build(o, s, mined)
		if g.NodeCount() >= MaxNodes {
			check(fmt.Sprintf("truncated stmt %d", s.ID), g)
			truncated++
		}
		g.Release()
	}
	if tabled == 0 || truncated == 0 {
		t.Fatalf("%d generated graphs of %d to %d used indices, %d graphs cut at MaxNodes", tabled,
			exactEnumBits+1, memoMaxBits, truncated)
	}

	unwritten := math.Inf(-1)
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 500; i++ {
		g := randomGraph(rng)
		checkShape(t, fmt.Sprintf("random graph %d", i), g)
		full := g.fullMask()
		g.root = &g.nodes[rng.Intn(len(g.nodes))]
		known := rng.Uint32() & full
		present := known & (g.root.cfgMask | rng.Uint32())
		vals := make([]float64, full+1)
		for m := range vals {
			vals[m] = unwritten
		}
		g.fillFrom(vals, g.root, known, present)
		for m := range vals {
			want := unwritten
			if uint32(m)&known == present {
				want = g.find(uint32(m)).cost
			}
			if vals[m] != want {
				t.Fatalf("random graph %d, known %b present %b, mask %b: wrote %v, want %v", i, known, present, m, vals[m], want)
			}
		}
	}
}

// checkShape asserts the two facts find and fillFrom rely on: a node's used
// set lies inside its configuration, and an expanded node has a child for
// every used index, the node whose configuration lacks just that index.
func checkShape(t *testing.T, name string, g *Graph) {
	t.Helper()
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.usedMask&^n.cfgMask != 0 {
			t.Fatalf("%s node %d: used %b outside configuration %b", name, i, n.usedMask, n.cfgMask)
		}
		if n.children == nil {
			continue
		}
		for u := n.usedMask; u != 0; u &= u - 1 {
			if c := n.children[bits.TrailingZeros32(u)]; c == nil || c.cfgMask != n.cfgMask&^(u&-u) {
				t.Fatalf("%s node %d: no child drops used bit %d", name, i, bits.TrailingZeros32(u))
			}
		}
	}
}

// randomGraph returns a random graph of IBG shape over at most 8 used
// indices, every node with its own cost. A node's used set is a random
// subset of its configuration. Expansion runs breadth first from the full
// configuration, as Build's does: an expanded node links one child per used
// index, the node without it, shared by configuration. It stops at a random
// node budget and leaves the later nodes unexpanded, as a MaxNodes cut does.
func randomGraph(rng *rand.Rand) *Graph {
	width := 1 + rng.Intn(8)
	full := uint32(1)<<width - 1
	budget := 1 + rng.Intn(64)
	cfgs, used := []uint32{full}, []uint32(nil)
	at := map[uint32]int{full: 0}
	expanded := 0 // nodes [0, expanded) are expanded
	for i := 0; i < len(cfgs); i++ {
		used = append(used, rng.Uint32()&cfgs[i])
		if len(cfgs) >= budget {
			continue
		}
		expanded = i + 1
		for u := used[i]; u != 0; u &= u - 1 {
			c := cfgs[i] &^ (u & -u)
			if _, ok := at[c]; !ok {
				at[c] = len(cfgs)
				cfgs = append(cfgs, c)
			}
		}
	}
	g := &Graph{usedIDs: make([]index.ID, width), nodes: make([]node, len(cfgs))}
	for i, c := range cfgs {
		n := &g.nodes[i]
		n.cost, n.cfgMask, n.usedMask = float64(i), c, used[i]
		if i >= expanded || used[i] == 0 {
			continue
		}
		n.children = make([]*node, width)
		for u := used[i]; u != 0; u &= u - 1 {
			n.children[bits.TrailingZeros32(u)] = &g.nodes[at[c&^(u&-u)]]
		}
	}
	g.root = &g.nodes[0]
	return g
}

// TestCostProbeProjection checks the projection contract of CostProbe:
// the relevant mask flags exactly the ids inside the used union, and the
// probe is constant across each coset of the irrelevant bits — the
// property that lets WFA price one representative per coset.
func TestCostProbeProjection(t *testing.T) {
	o, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(o, q, index.NewSet(ids...))
	xlat := make([]uint32, len(ids))
	probe, relevant := g.CostProbe(ids, xlat)
	for i, id := range ids {
		if got, want := relevant&(1<<i) != 0, g.UsedUnion().Contains(id); got != want {
			t.Fatalf("relevant bit %d = %v, used union membership %v", i, got, want)
		}
	}
	for mask := uint32(0); mask < 1<<len(ids); mask++ {
		got := probe(mask)
		if proj := probe(mask & relevant); got != proj {
			t.Fatalf("mask %b: probe %v differs from projected probe %v", mask, got, proj)
		}
		var cur []index.ID
		for j := range ids {
			if mask&(1<<j) != 0 {
				cur = append(cur, ids[j])
			}
		}
		if want := g.Cost(index.NewSet(cur...)); got != want {
			t.Fatalf("mask %b: probe %v, set path %v", mask, got, want)
		}
	}
}

// TestReleaseRecyclesMemo builds, probes, and releases graphs in a loop —
// the per-statement lifecycle WFIT drives — alternating two joins of
// different selectivities whose graphs have the same used width, so a
// build can get the other statement's released cost table from the pool.
// Every mask must probe to find's cost, so a recycled table must be fully
// overwritten, and a released graph still answers correctly through walks.
func TestReleaseRecyclesMemo(t *testing.T) {
	o, _, ids := testSetup(t)
	other := joinQuery()
	for i := range other.Preds {
		other.Preds[i].Selectivity *= 2
	}
	stmts := []*stmt.Statement{joinQuery(), other}
	var last *costMemo
	width, recycled := -1, 0
	for round := 0; round < 6; round++ {
		s := stmts[round%len(stmts)]
		g := Build(o, s, index.NewSet(ids...))
		if width < 0 {
			width = len(g.usedIDs)
		}
		if len(g.usedIDs) != width || g.memo == nil {
			t.Fatalf("round %d: %d used indices (table %t), want %d with a table", round, len(g.usedIDs), g.memo != nil, width)
		}
		if g.memo == last {
			recycled++
		}
		last = g.memo
		want := make([]float64, g.fullMask()+1)
		for m := range want {
			want[m] = g.find(uint32(m)).cost
			if got := g.CostMask(uint32(m)); math.Float64bits(got) != math.Float64bits(want[m]) {
				t.Fatalf("round %d mask %b: table %v, walk %v", round, m, got, want[m])
			}
		}
		g.Release()
		for m := range want {
			if got := g.CostMask(uint32(m)); math.Float64bits(got) != math.Float64bits(want[m]) {
				t.Fatalf("round %d mask %b: post-release probe %v, want %v", round, m, got, want[m])
			}
		}
	}
	// The race detector makes sync.Pool drop released items at random.
	if recycled == 0 && !raceEnabled {
		t.Fatalf("no build recycled the table the previous round released")
	}
}

// TestConcurrentProbesAreRaceFree runs probes and Statistics calls side by
// side on one graph, as the benchmark harness's concurrent runs (RunAll)
// do on the environment's shared graphs: eight goroutines probe CostMask
// while two call Statistics. It does so on the hand-built join's narrow
// graph and on the first generated graph of more than exactEnumBits and at
// most memoMaxBits used indices, whose statistics read the cost table over
// node contexts. Nothing writes a graph after Build, so every result must
// equal the one computed alone bit for bit, and under -race no access may
// race.
func TestConcurrentProbesAreRaceFree(t *testing.T) {
	const threshold = 1e-6
	o, _, ids := testSetup(t)
	graphs := []*Graph{Build(o, joinQuery(), index.NewSet(ids...))}
	generatedGraphs("", func(_ *whatif.Optimizer, _ *stmt.Statement, _ index.Set, g *Graph) bool {
		if n := len(g.usedIDs); n > exactEnumBits && n <= memoMaxBits {
			graphs = append(graphs, g)
			return false
		}
		g.Release()
		return true
	})
	if len(graphs) != 2 {
		t.Fatalf("no generated graph has %d to %d used indices", exactEnumBits+1, memoMaxBits)
	}
	for _, g := range graphs {
		used := g.UsedUnion().IDs()
		wantB, wantIn := g.Statistics(threshold)
		full := g.fullMask()
		var wg sync.WaitGroup
		for w := 0; w < 10; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if w < 2 {
					b, in := g.Statistics(threshold)
					if err := diffStatistics(used, wantB, wantIn, b, in); err != nil {
						t.Errorf("%d used indices, concurrent Statistics: %v", len(used), err)
					}
					return
				}
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 2000; i++ {
					m := rng.Uint32() & full
					if got, want := g.CostMask(m), g.find(m).cost; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%d used indices, mask %b: concurrent probe %v, walk %v", len(used), m, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		g.Release()
	}
}
