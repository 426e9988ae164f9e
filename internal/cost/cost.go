// Package cost implements the what-if optimizer simulator: an analytical
// cost model that prices a statement under a hypothetical index
// configuration. It stands in for the DB2 what-if interface the paper's
// prototype used (§6), providing the two services WFIT needs from the DBMS:
// cost(q, X) for arbitrary X, and candidate-index extraction.
//
// The model selects, per table, the cheapest of sequential scan, (covering)
// index scan, and two-index intersection, and per join the cheaper of
// index nested-loop and hash join over all left-deep join orders. Because
// plan choice takes a minimum over paths that share indices, index benefits
// interact exactly as they do in a real optimizer — which is the property
// WFIT's interaction machinery (IBG, doi, stable partitions) exists to
// handle.
//
// CostUsed is the definition of the model: plain code that resolves what
// it needs on every call and shares no state between calls. The tuner
// calls it once per statement, for the statement's cost under the
// materialized configuration, and for the nodes of an index benefit graph
// over more than 64 candidates. Prepare is the fast path: it specializes
// the model to one statement and a list of at most 64 candidates,
// resolving once what depends only on the statement, so that the many
// configurations of one graph are priced without repeating that work; its
// CostMask equals CostUsed bit for bit. Both call the same helper for
// each cost formula.
package cost

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/stmt"
)

// Params holds the cost-model constants, all in page-read units.
type Params struct {
	// RandomFetch is the cost of fetching one heap row through an index.
	RandomFetch float64
	// CPUPerRow is the per-row processing cost (scan filter, hash probe).
	CPUPerRow float64
	// ProbeCost is the cost to traverse an index from root to leaf.
	ProbeCost float64
	// UpdateRowCost is the heap write cost per updated row.
	UpdateRowCost float64
	// MaintPerRow is the per-row maintenance cost for each index whose
	// key contains a modified column.
	MaintPerRow float64
	// CreateLeafFactor scales index leaf pages into build cost (sort and
	// write passes) on top of one base-table scan.
	CreateLeafFactor float64
	// DropCost is the flat cost to drop any index; its smallness relative
	// to creation costs is what makes δ asymmetric.
	DropCost float64
	// MaxPermutedTables bounds exhaustive join-order enumeration; larger
	// queries fall back to the listed table order.
	MaxPermutedTables int
}

// DefaultParams returns the parameter set used throughout the experiments.
func DefaultParams() Params {
	return Params{
		RandomFetch:       1.0,
		CPUPerRow:         0.002,
		ProbeCost:         2.0,
		UpdateRowCost:     1.0,
		MaintPerRow:       3.0,
		CreateLeafFactor:  2.0,
		DropCost:          1.0,
		MaxPermutedTables: 5,
	}
}

// Model is the what-if cost model over a catalog and an index registry.
// Model is read-only after construction and safe for concurrent use.
type Model struct {
	cat *catalog.Catalog
	reg *index.Registry
	p   Params
}

// NewModel builds a cost model.
func NewModel(cat *catalog.Catalog, reg *index.Registry, p Params) *Model {
	return &Model{cat: cat, reg: reg, p: p}
}

// Catalog returns the underlying catalog.
func (m *Model) Catalog() *catalog.Catalog { return m.cat }

// Registry returns the index registry the model resolves IDs against.
func (m *Model) Registry() *index.Registry { return m.reg }

// Params returns the model constants.
func (m *Model) Params() Params { return m.p }

// The cost formulas. CostUsed and Prepared.CostMask both price every plan
// step through these, so the two paths perform the same floating-point
// operations on the same operands.

// seqScanCost prices a heap scan of a table.
func (p *Params) seqScanCost(pages, rows float64) float64 {
	return pages + rows*p.CPUPerRow
}

// indexScanCost prices a range scan over the fraction sel of an index:
// leafScan leaf pages, then every matching row read from the leaf when the
// index covers the statement's columns, fetched from the heap otherwise.
func (p *Params) indexScanCost(sel, leafScan, rows float64, covering bool) float64 {
	if covering {
		return p.ProbeCost + leafScan + sel*rows*p.CPUPerRow
	}
	return p.ProbeCost + leafScan + sel*rows*p.RandomFetch
}

// coveringScanCost prices an index-only full scan: cheaper than a heap
// scan when the key is narrower than the row.
func (p *Params) coveringScanCost(leafPages, rows float64) float64 {
	return p.ProbeCost + leafPages + rows*p.CPUPerRow
}

// intersectCost prices a two-index intersection: scan both leaf ranges,
// intersect RID sets, fetch only rows matching both predicates.
func (p *Params) intersectCost(aSel, aLeafScan, bSel, bLeafScan, rows float64) float64 {
	combined := aSel * bSel
	return 2*p.ProbeCost + aLeafScan + bLeafScan +
		rows*(aSel+bSel)*p.CPUPerRow +
		rows*combined*p.RandomFetch
}

// probeCost prices one index nested-loop probe that fetches the given
// rows, from the leaf when the index covers the statement's columns.
func (p *Params) probeCost(fetched float64, covering bool) float64 {
	if covering {
		return p.ProbeCost + fetched*p.CPUPerRow
	}
	return p.ProbeCost + fetched*p.RandomFetch
}

// hashJoinCost prices a hash-join step: scan the inner once, hash both
// sides.
func (p *Params) hashJoinCost(innerCost, rows, innerRows float64) float64 {
	return innerCost + (rows+innerRows)*p.CPUPerRow
}

// joinRows estimates the rows of an equi-join whose inner join column has
// d distinct values.
func joinRows(rows, innerRows, d float64) float64 {
	return math.Max(rows*innerRows/d, 1e-9)
}

// outputCost adds the CPU of emitting a plan's result rows.
func (p *Params) outputCost(cost, rows float64) float64 {
	return cost + rows*p.CPUPerRow
}

// heapWriteCost adds the heap writes of an update's affected rows to the
// cost of locating them.
func (p *Params) heapWriteCost(whereCost, affected float64) float64 {
	return whereCost + affected*p.UpdateRowCost
}

// maintCost prices maintaining one index for an update's affected rows.
func (p *Params) maintCost(affected float64) float64 {
	return p.ProbeCost + affected*p.MaintPerRow
}

// Cost returns the estimated cost of s under configuration cfg.
func (m *Model) Cost(s *stmt.Statement, cfg index.Set) float64 {
	c, _ := m.CostUsed(s, cfg)
	return c
}

// CostUsed returns the estimated cost of s under cfg together with the set
// of indices the chosen plan depends on (including indices that only incur
// maintenance cost for updates). The used set U satisfies the index
// benefit graph property: Cost(s, X) == Cost(s, U) for every U ⊆ X ⊆ cfg.
func (m *Model) CostUsed(s *stmt.Statement, cfg index.Set) (float64, index.Set) {
	if s.Kind == stmt.Update {
		return m.updateCost(s, cfg)
	}
	return m.queryCost(s, cfg)
}

// Relevant reports whether the index could influence the cost of s: it
// must live on a table the statement accesses.
func (m *Model) Relevant(s *stmt.Statement, id index.ID) bool {
	return s.HasTable(m.reg.Get(id).Table)
}

// RestrictConfig drops from cfg every index irrelevant to s. The cost
// model guarantees Cost(s, cfg) == Cost(s, RestrictConfig(s, cfg)). When
// every member is relevant, cfg itself is returned and nothing is
// allocated.
func (m *Model) RestrictConfig(s *stmt.Statement, cfg index.Set) index.Set {
	relevant := 0
	cfg.Each(func(id index.ID) {
		if m.Relevant(s, id) {
			relevant++
		}
	})
	if relevant == cfg.Len() {
		return cfg
	}
	keep := make([]index.ID, 0, relevant)
	cfg.Each(func(id index.ID) {
		if m.Relevant(s, id) {
			keep = append(keep, id)
		}
	})
	return index.NewSet(keep...)
}

// accessResult describes the outcome of scanning or probing one table.
type accessResult struct {
	cost float64
	rows float64 // output cardinality after all predicates
	used []index.ID
}

// tableIndexes resolves the members of cfg that live on the given table,
// in ascending ID order.
func (m *Model) tableIndexes(cfg index.Set, table string) []*index.Index {
	var out []*index.Index
	cfg.Each(func(id index.ID) {
		if def := m.reg.Get(id); def.Table == table {
			out = append(out, def)
		}
	})
	return out
}

// matchPreds computes how selective an index scan over idx can be, given
// the table's predicates. B-tree matching rules: consecutive leading key
// columns consume equality predicates; the first range predicate consumes
// one more column and stops the match. Returns the combined selectivity of
// the matched predicates and their count (sel=1, n=0 when unusable).
func matchPreds(idx *index.Index, preds []stmt.Pred) (sel float64, matched int) {
	return matchPredCols(idx.Columns, preds)
}

// matchPredCols is matchPreds over a bare key-column slice, so callers
// matching a suffix of an index key need not materialize a scratch Index.
func matchPredCols(cols []string, preds []stmt.Pred) (sel float64, matched int) {
	sel = 1.0
	for _, col := range cols {
		var hit *stmt.Pred
		for i := range preds {
			if preds[i].Column == col {
				hit = &preds[i]
				break
			}
		}
		if hit == nil {
			return sel, matched
		}
		sel *= hit.Selectivity
		matched++
		if !hit.Eq {
			return sel, matched // range predicate ends the key match
		}
	}
	return sel, matched
}

// indexAccess is what one index offers the standalone access to its
// table, whatever else the configuration holds.
type indexAccess struct {
	cost     float64 // the cheaper of its scans; valid when ok
	sel      float64 // selectivity of the matched predicates; valid when usable
	leafScan float64 // leaf pages the matched range reads; valid when usable
	usable   bool    // matches a predicate, so it may join an intersection
	ok       bool    // offers a scan: usable, or covering for a full scan
}

// access prices idx as a single-index access path to a table of rows rows
// read through view: a range scan when its key matches a predicate, an
// index-only full scan when it only covers the needed columns.
func (m *Model) access(idx *index.Index, view *stmt.TableView, rows float64) indexAccess {
	sel, matched := matchPreds(idx, view.Preds)
	covering := idx.Covers(view.Needed)
	if matched > 0 {
		leafScan := sel * idx.LeafPages
		return indexAccess{
			cost: m.p.indexScanCost(sel, leafScan, rows, covering),
			sel:  sel, leafScan: leafScan, usable: true, ok: true,
		}
	}
	if covering {
		return indexAccess{cost: m.p.coveringScanCost(idx.LeafPages, rows), ok: true}
	}
	return indexAccess{}
}

// scored is scanTable's record of an index that may join an intersection.
type scored struct {
	idx      *index.Index
	sel      float64
	leafScan float64
}

// scanTable prices the cheapest standalone access to a table: sequential
// scan, single index scan (covering or fetching), covering-only full index
// scan, or two-index intersection.
func (m *Model) scanTable(s *stmt.Statement, table string, avail []*index.Index) accessResult {
	t := m.cat.MustTable(table)
	view := s.View(table)
	rows := t.Rows

	best := accessResult{
		cost: m.p.seqScanCost(t.Pages(), rows),
		rows: rows * view.Selectivity,
	}

	var usable []scored
	for _, idx := range avail {
		a := m.access(idx, view, rows)
		if a.ok && a.cost < best.cost {
			best.cost, best.used = a.cost, []index.ID{idx.ID}
		}
		if a.usable {
			usable = append(usable, scored{idx, a.sel, a.leafScan})
		}
	}

	for i := 0; i < len(usable); i++ {
		for j := i + 1; j < len(usable); j++ {
			a, b := usable[i], usable[j]
			if a.idx.LeadingColumn() == b.idx.LeadingColumn() {
				continue // same predicate: no extra filtering power
			}
			if c := m.p.intersectCost(a.sel, a.leafScan, b.sel, b.leafScan, rows); c < best.cost {
				best.cost, best.used = c, []index.ID{a.idx.ID, b.idx.ID}
			}
		}
	}
	return best
}

// probeRows returns how many rows of t one index nested-loop probe via
// joinCol matches; found is false when the catalog lacks the column.
func probeRows(t *catalog.Table, joinCol string) (rows float64, found bool) {
	col, found := t.Column(joinCol)
	if !found {
		return 0, false
	}
	return t.Rows / math.Max(col.Distinct, 1), true
}

// probeOption prices one probe through idx via joinCol, matching
// matchRows rows of a table read through view; ok is false when idx does
// not lead with joinCol. Key columns after the join column may consume
// further predicates and cut down the rows fetched per probe.
func (m *Model) probeOption(idx *index.Index, joinCol string, view *stmt.TableView, matchRows float64) (cost float64, ok bool) {
	if idx.LeadingColumn() != joinCol {
		return 0, false
	}
	extraSel, _ := matchPredCols(idx.Columns[1:], view.Preds)
	return m.p.probeCost(matchRows*extraSel, idx.Covers(view.Needed)), true
}

// probeTable prices one index nested-loop probe into table via joinCol.
// ok is false when no index leads with the join column.
func (m *Model) probeTable(s *stmt.Statement, table, joinCol string, avail []*index.Index) (perProbe float64, used []index.ID, ok bool) {
	matchRows, found := probeRows(m.cat.MustTable(table), joinCol)
	if !found {
		return 0, nil, false
	}
	view := s.View(table)
	bestCost := math.Inf(1)
	var bestUsed []index.ID
	for _, idx := range avail {
		if c, ok := m.probeOption(idx, joinCol, view, matchRows); ok && c < bestCost {
			bestCost = c
			bestUsed = []index.ID{idx.ID}
		}
	}
	if math.IsInf(bestCost, 1) {
		return 0, nil, false
	}
	return bestCost, bestUsed, true
}

// joinDistinct returns the distinct count of the join column on the given
// table, used for equi-join cardinality estimation.
func (m *Model) joinDistinct(table, column string) float64 {
	t := m.cat.MustTable(table)
	if c, ok := t.Column(column); ok {
		return math.Max(c.Distinct, 1)
	}
	return 1
}

// joinLink is a join predicate resolved to positions in the statement's
// table list, so order enumeration compares small integers instead of
// table names.
type joinLink struct {
	a, b       int // positions in Statement.Tables
	colA, colB string
}

// joinLinks resolves s's join predicates, in s.Joins order, to the first
// occurrence of each side's table. A join naming a table s does not
// access can never connect an order and is dropped.
func joinLinks(s *stmt.Statement) []joinLink {
	var links []joinLink
	for i := range s.Joins {
		j := &s.Joins[i]
		a, b := tablePos(s.Tables, j.LeftTable), tablePos(s.Tables, j.RightTable)
		if a < 0 || b < 0 {
			continue
		}
		links = append(links, joinLink{a: a, b: b, colA: j.LeftColumn, colB: j.RightColumn})
	}
	return links
}

// tablePos returns the position of the first occurrence of table in
// tables, or -1.
func tablePos(tables []string, table string) int {
	for i, x := range tables {
		if x == table {
			return i
		}
	}
	return -1
}

// queryCost prices a query by minimizing over left-deep join orders.
func (m *Model) queryCost(s *stmt.Statement, cfg index.Set) (float64, index.Set) {
	tables := s.Tables
	// Each table position's indexes and standalone scan are resolved once
	// and shared by every order.
	avail := make([][]*index.Index, len(tables))
	scans := make([]accessResult, len(tables))
	for i, t := range tables {
		avail[i] = m.tableIndexes(cfg, t)
		scans[i] = m.scanTable(s, t, avail[i])
	}
	if len(tables) == 1 {
		return m.p.outputCost(scans[0].cost, scans[0].rows), index.NewSet(scans[0].used...)
	}

	links := joinLinks(s)
	bestCost := math.Inf(1)
	var bestUsed []index.ID
	tryOrder := func(order []int) {
		cost, rows, used, ok := m.planOrder(s, avail, scans, links, order)
		if ok && cost < bestCost {
			bestCost = m.p.outputCost(cost, rows)
			bestUsed = used
		}
	}
	order := make([]int, len(tables))
	for i := range order {
		order[i] = i
	}
	if len(tables) <= m.p.MaxPermutedTables {
		permute(order, 0, tryOrder)
	} else {
		tryOrder(order)
	}
	if math.IsInf(bestCost, 1) {
		// No connected order: price the cross product pessimistically.
		var total, rows float64 = 0, 1
		var used []index.ID
		for i := range scans {
			r := &scans[i]
			total += r.cost
			rows *= math.Max(r.rows, 1)
			used = append(used, r.used...)
		}
		return m.p.outputCost(total, rows), index.NewSet(used...)
	}
	return bestCost, index.NewSet(bestUsed...)
}

// connectingLink returns the first link, in s.Joins order, that joins
// table position ti to one of the positions in prefix, and the join column
// on ti's side.
func connectingLink(links []joinLink, ti int, prefix []int) (col string, ok bool) {
	for _, l := range links {
		var other int
		switch ti {
		case l.a:
			other, col = l.b, l.colA
		case l.b:
			other, col = l.a, l.colB
		default:
			continue
		}
		for _, p := range prefix {
			if p == other {
				return col, true
			}
		}
	}
	return "", false
}

// planOrder prices one left-deep join order (given as table positions over
// the per-position indexes avail and scans) and returns the indices it
// uses. Each joined table enters via the cheaper of index nested-loop
// (driven by a connecting join predicate) or hash join; disconnected
// orders are rejected. Membership in the partial plan is a prefix of
// order, so connectivity is a few integer comparisons per step.
func (m *Model) planOrder(s *stmt.Statement, avail [][]*index.Index, scans []accessResult, links []joinLink, order []int) (cost, rows float64, used []index.ID, ok bool) {
	first := &scans[order[0]]
	cost, rows = first.cost, first.rows
	used = append(used, first.used...)

	for oi := 1; oi < len(order); oi++ {
		ti := order[oi]
		joinCol, connected := connectingLink(links, ti, order[:oi])
		if !connected {
			return 0, 0, nil, false
		}
		table := s.Tables[ti]
		d := m.joinDistinct(table, joinCol)

		stepCost := math.Inf(1)
		var stepUsed []index.ID
		// Index nested-loop join.
		if perProbe, probeUsed, found := m.probeTable(s, table, joinCol, avail[ti]); found {
			if c := rows * perProbe; c < stepCost {
				stepCost = c
				stepUsed = probeUsed
			}
		}
		inner := &scans[ti]
		if hashCost := m.p.hashJoinCost(inner.cost, rows, inner.rows); hashCost < stepCost {
			stepCost = hashCost
			stepUsed = inner.used
		}

		cost += stepCost
		used = append(used, stepUsed...)
		rows = joinRows(rows, inner.rows, d)
	}
	return cost, rows, used, true
}

// updateCost prices an update: locate the affected rows via the cheapest
// access path, write the heap, and maintain every configured index whose
// key contains a modified column.
func (m *Model) updateCost(s *stmt.Statement, cfg index.Set) (float64, index.Set) {
	table := s.UpdateTable()
	avail := m.tableIndexes(cfg, table)

	where := m.scanTable(s, table, avail)
	affected := m.cat.MustTable(table).Rows * s.PredSelectivity(table)
	total := m.p.heapWriteCost(where.cost, affected)
	used := append([]index.ID(nil), where.used...)

	for _, idx := range avail {
		if containsAny(idx.Columns, s.SetColumns) {
			total += m.p.maintCost(affected)
			used = append(used, idx.ID)
		}
	}
	return total, index.NewSet(used...)
}

// containsAny reports whether cols and targets share any element.
func containsAny(cols, targets []string) bool {
	for _, c := range cols {
		for _, t := range targets {
			if c == t {
				return true
			}
		}
	}
	return false
}

// permute enumerates permutations of order[k:] in place.
func permute(order []int, k int, visit func([]int)) {
	if k == len(order)-1 {
		visit(order)
		return
	}
	for i := k; i < len(order); i++ {
		order[k], order[i] = order[i], order[k]
		permute(order, k+1, visit)
		order[k], order[i] = order[i], order[k]
	}
}
