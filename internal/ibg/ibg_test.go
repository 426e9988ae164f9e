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
// that are not truncated price every configuration bit for bit. Builds
// run on two workers, so under -race the wide waves also check that
// concurrent CostUsed calls share no state.
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
		g := BuildWorkers(o, s, mined, 2)
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

// fanOutCase is one statement of a generated workload with the candidates
// mined up to and including it.
type fanOutCase struct {
	s     *stmt.Statement
	cands index.Set
}

var (
	fanOutOnce  sync.Once
	fanOutOpt   *whatif.Optimizer
	fanOutCases []fanOutCase
)

// fanOutSetup walks the first two phases of the default workload, mining
// candidates as it goes, and keeps the first three statements whose IBG's
// used union exceeds exactEnumBits and the first three within it. The wide
// graphs reach both fan-out gates; the narrow ones stay serial.
func fanOutSetup(t *testing.T) (*whatif.Optimizer, []fanOutCase) {
	t.Helper()
	fanOutOnce.Do(func() {
		wide, narrow := 0, 0
		generatedGraphs("", func(o *whatif.Optimizer, s *stmt.Statement, cands index.Set, g *Graph) bool {
			fanOutOpt = o
			isWide := g.UsedUnion().Len() > exactEnumBits
			if isWide && wide < 3 || !isWide && narrow < 3 {
				fanOutCases = append(fanOutCases, fanOutCase{s, cands})
				if isWide {
					wide++
				} else {
					narrow++
				}
			}
			return wide < 3 || narrow < 3
		})
	})
	return fanOutOpt, fanOutCases
}

// maxWave returns the widest construction wave of g: wave k holds the
// nodes k used indices below the root.
func maxWave(g *Graph) int {
	full := g.fullMask()
	waves := make(map[int]int)
	widest := 0
	for i := range g.nodes {
		k := bits.OnesCount32(full &^ g.nodes[i].cfgMask)
		waves[k]++
		widest = max(widest, waves[k])
	}
	return widest
}

// TestParallelBuildIdenticalToSerial checks BuildWorkers' contract on
// generated statements: a build whose waves reach parallelWave, priced on
// a worker pool, is node for node the serial build.
func TestParallelBuildIdenticalToSerial(t *testing.T) {
	o, cases := fanOutSetup(t)
	gated := false
	for _, c := range cases {
		serial := Build(o, c.s, c.cands)
		parallel := BuildWorkers(o, c.s, c.cands, 8)
		gated = gated || maxWave(serial) >= parallelWave
		if serial.NodeCount() != parallel.NodeCount() || serial.Truncated() != parallel.Truncated() {
			t.Fatalf("stmt %d: %d nodes (truncated %v) vs %d (truncated %v)", c.s.ID,
				serial.NodeCount(), serial.Truncated(), parallel.NodeCount(), parallel.Truncated())
		}
		if !serial.UsedUnion().Equal(parallel.UsedUnion()) {
			t.Fatalf("stmt %d: used unions differ: %v vs %v", c.s.ID, serial.UsedUnion(), parallel.UsedUnion())
		}
		si, pi := nodeIndex(serial), nodeIndex(parallel)
		for i := range serial.nodes {
			sn, pn := &serial.nodes[i], &parallel.nodes[i]
			if sn.cost != pn.cost || sn.cfgMask != pn.cfgMask || sn.usedMask != pn.usedMask || len(sn.children) != len(pn.children) {
				t.Fatalf("stmt %d node %d: %+v vs %+v", c.s.ID, i, *sn, *pn)
			}
			for k, sc := range sn.children {
				pc := pn.children[k]
				if (sc == nil) != (pc == nil) || sc != nil && si[sc] != pi[pc] {
					t.Fatalf("stmt %d node %d: child %d differs", c.s.ID, i, k)
				}
			}
		}
	}
	if !gated {
		t.Fatalf("no generated graph has a wave of %d nodes: the pooled path went untested", parallelWave)
	}
}

// nodeIndex maps each node of g to its position in the node slab.
func nodeIndex(g *Graph) map[*node]int {
	idx := make(map[*node]int, len(g.nodes))
	for i := range g.nodes {
		idx[&g.nodes[i]] = i
	}
	return idx
}

// TestStatisticsMatchesDefinitions checks Statistics bit for bit against
// the per-index MaxBenefit and pairwise DOI, with eight workers and with
// one, on every wide generated graph of both profiles (every twentieth under
// the race detector) and on the first three narrow ones. On wide graphs
// MaxBenefit and DOI keep their CostMask probes, so they are a reference
// independent of the memo fill Statistics reads. They run first, so the
// memo holds stamped entries when Statistics fills it; afterwards every
// mask up to 16 used indices (a random sample above) must still probe to
// find's cost, so no memo entry survives stale. A released wide graph,
// which has no memo to fill, must give the same statistics.
func TestStatisticsMatchesDefinitions(t *testing.T) {
	const threshold = 1e-6
	rng := rand.New(rand.NewSource(513))
	check := func(s *stmt.Statement, g *Graph) {
		t.Helper()
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
			if len(benefits) != len(wantB) || len(interactions) != len(wantIn) {
				t.Fatalf("stmt %d, %s: %d benefits and %d interactions, want %d and %d", s.ID,
					pass, len(benefits), len(interactions), len(wantB), len(wantIn))
			}
			for i := range wantB {
				if math.Float64bits(benefits[i]) != math.Float64bits(wantB[i]) {
					t.Fatalf("stmt %d, %s: benefit of %d is %v, MaxBenefit %v", s.ID, pass, used[i], benefits[i], wantB[i])
				}
			}
			for k := range wantIn {
				if got := interactions[k]; got.A != wantIn[k].A || got.B != wantIn[k].B ||
					math.Float64bits(got.Doi) != math.Float64bits(wantIn[k].Doi) {
					t.Fatalf("stmt %d, %s: interaction %d is %+v, want %+v", s.ID, pass, k, got, wantIn[k])
				}
			}
		}
		b8, in8 := g.Statistics(threshold, 8)
		compare("8 workers", b8, in8)
		b1, in1 := g.Statistics(threshold, 1)
		compare("1 worker", b1, in1)
		full := g.fullMask()
		for k := uint32(0); k <= full && k < 1<<16; k++ {
			m := k
			if full >= 1<<16 {
				m = rng.Uint32() & full
			}
			if got, want := g.CostMask(m), g.find(m).cost; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stmt %d mask %b: probe after Statistics %v, find %v", s.ID, m, got, want)
			}
		}
		if len(used) > exactEnumBits {
			g.Release()
			bR, inR := g.Statistics(threshold, 2)
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

// TestFillCostsMatchesFind holds fillCosts to find, bit for bit on every
// mask, on every generated graph of exactEnumBits+1 to memoMaxBits used
// indices and on the graphs of that width that the ad-hoc stream of 200
// query templates cuts at MaxNodes. Random node structures then start the
// walk at any node on a subcube with some bits already known: every mask of
// the subcube must get the cost find reaches from that node, and no other
// mask may be written. Builds never give a node a used index outside its
// configuration, which is how a known-absent bit meets a used one, or a
// used index without a child, but find defines a cost for those shapes
// too, and only the random graphs reach the branches that follow it there.
func TestFillCostsMatchesFind(t *testing.T) {
	check := func(name string, g *Graph) {
		t.Helper()
		vals := make([]uint64, 1<<len(g.usedIDs))
		g.fillCosts(vals)
		for m := range vals {
			if want := g.find(uint32(m)).cost; vals[m] != math.Float64bits(want) {
				t.Fatalf("%s mask %b: filled %v, find %v", name, m, math.Float64frombits(vals[m]), want)
			}
		}
	}
	wide := 0
	for _, profile := range []string{"", workload.ProfileAdhoc} {
		generatedGraphs(profile, func(_ *whatif.Optimizer, s *stmt.Statement, _ index.Set, g *Graph) bool {
			if n := len(g.usedIDs); n > exactEnumBits && n <= memoMaxBits {
				check(fmt.Sprintf("stmt %d", s.ID), g)
				wide++
			}
			g.Release()
			return true
		})
	}

	// Only statements whose relevant candidates fit memoMaxBits are built:
	// the stream's wider graphs are slow to build and have no memo.
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
	if wide == 0 || truncated == 0 {
		t.Fatalf("%d generated graphs of %d to %d used indices, %d of them cut at MaxNodes", wide+truncated,
			exactEnumBits+1, memoMaxBits, truncated)
	}

	const unwritten = math.MaxUint64
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 500; i++ {
		g := randomGraph(rng)
		full := g.fullMask()
		known := rng.Uint32() & full
		present := rng.Uint32() & known
		vals := make([]uint64, full+1)
		for m := range vals {
			vals[m] = unwritten
		}
		g.root = &g.nodes[rng.Intn(len(g.nodes))]
		g.fillFrom(vals, g.root, known, present)
		for m := range vals {
			want := uint64(unwritten)
			if uint32(m)&known == present {
				want = math.Float64bits(g.find(uint32(m)).cost)
			}
			if vals[m] != want {
				t.Fatalf("random graph %d, known %b present %b, mask %b: wrote %x, want %x", i, known, present, m, vals[m], want)
			}
		}
	}
}

// randomGraph returns a graph of random shape over at most 8 used indices,
// every node with its own cost. A node's children are later nodes, so
// find's walk ends; some children are missing, and used masks ignore
// configurations.
func randomGraph(rng *rand.Rand) *Graph {
	width := 1 + rng.Intn(8)
	full := uint32(1)<<width - 1
	g := &Graph{usedIDs: make([]index.ID, width), nodes: make([]node, 1+rng.Intn(40))}
	for i := range g.nodes {
		n := &g.nodes[i]
		n.cost = float64(i)
		n.cfgMask, n.usedMask = rng.Uint32()&full, rng.Uint32()&full
		if i+1 == len(g.nodes) || rng.Intn(4) == 0 {
			continue
		}
		n.children = make([]*node, width)
		for p := range n.children {
			if rng.Intn(5) > 0 {
				n.children[p] = &g.nodes[i+1+rng.Intn(len(g.nodes)-i-1)]
			}
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
// the per-statement lifecycle WFIT drives — checking that probe answers
// stay correct as the pooled, epoch-stamped memo buffers are recycled
// across statements, and that a released graph still answers correctly
// through the uncached path.
func TestReleaseRecyclesMemo(t *testing.T) {
	o, _, ids := testSetup(t)
	stmts := []*stmt.Statement{joinQuery(), updateStmt()}
	for round := 0; round < 6; round++ {
		s := stmts[round%len(stmts)]
		g := Build(o, s, index.NewSet(ids...))
		want := make(map[uint32]float64)
		full := g.fullMask()
		for m := uint32(0); m <= full; m++ {
			want[m] = g.find(m).cost
			if got := g.CostMask(m); got != want[m] {
				t.Fatalf("round %d mask %b: memoized %v, walk %v", round, m, got, want[m])
			}
		}
		// Probe twice: the second pass is served from the recycled memo.
		for m := uint32(0); m <= full; m++ {
			if got := g.CostMask(m); got != want[m] {
				t.Fatalf("round %d mask %b: second probe %v, want %v", round, m, got, want[m])
			}
		}
		g.Release()
		for m := uint32(0); m <= full; m++ {
			if got := g.CostMask(m); got != want[m] {
				t.Fatalf("round %d mask %b: post-release probe %v, want %v", round, m, got, want[m])
			}
		}
	}
}

// TestConcurrentProbesAreRaceFree hammers one graph from many goroutines;
// run under -race this validates the atomic cost memo.
func TestConcurrentProbesAreRaceFree(t *testing.T) {
	o, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(o, q, index.NewSet(ids...))
	want := make([]float64, 64)
	for m := range want {
		want[m] = g.find(uint32(m) & g.fullMask()).cost
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m := uint32((seed*31 + i)) % 64
				if got := g.CostMask(m & g.fullMask()); got != want[m] {
					panic("nondeterministic cost under concurrency")
				}
			}
		}(w)
	}
	wg.Wait()
}
