package cost

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/index"
	"repro/internal/stmt"
)

// Prepared is the cost model specialized to one statement and one
// ascending list of at most 64 candidate indices: Prepare resolves
// everything that depends only on the statement, and CostMask prices a
// configuration given as a bitmask over the list (bit i stands for
// ids[i]).
//
// CostMask equals CostUsed bit for bit. Per table it walks the present
// indices in ascending ID order, as tableIndexes does, and folds them with
// the same strict comparisons through the same formula helpers; it tries
// the connected join orders in permute's order and falls back to the same
// cross product. A Prepared is read-only after Prepare and safe for
// concurrent use; CostMask's per-call scratch is pooled.
type Prepared struct {
	params *Params
	update bool
	ix     []prepIndex // by bit position
	tables []prepTable // by table position; updates have only the updated table
	// slots holds one index nested-loop probe option per distinct (table
	// position, join column): the members that lead with the join column,
	// none when the catalog lacks the column.
	slots  []uint64
	orders []prepOrder // connected join orders, in enumeration order

	// Updates only.
	affected float64 // affected rows
	maint    uint64  // members whose key holds a modified column
}

// prepIndex is what one candidate offers its table.
type prepIndex struct {
	scan     float64 // standalone access cost, when in its table's scans mask
	sel      float64 // matched selectivity, when in its table's usable mask
	leafScan float64 // matched leaf pages, when in its table's usable mask
	probe    float64 // probe cost via its leading column, when in a slot's mask
	lead     int     // leading column, numbered per table
}

// prepTable is one table position of the statement.
type prepTable struct {
	rows   float64 // base rows
	out    float64 // rows after the table's predicates
	seq    float64 // heap-scan cost
	scans  uint64  // members that offer a standalone scan
	usable uint64  // members that match a predicate: intersection inputs
}

// prepOrder is one connected left-deep join order.
type prepOrder struct {
	first int
	steps []prepStep
	rows  float64 // rows of the joined result
}

// prepStep joins one more table to an order's prefix.
type prepStep struct {
	table int
	slot  int
	rows  float64 // rows of the prefix it joins to
}

// Prepare specializes the model to s over ids, which must be ascending
// and at most 64 long. Indices on tables s does not access are ignored, as
// CostUsed ignores them.
func (m *Model) Prepare(s *stmt.Statement, ids []index.ID) *Prepared {
	if len(ids) > 64 {
		panic(fmt.Sprintf("cost: Prepare over %d candidates, more than a mask holds", len(ids)))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			panic("cost: Prepare over candidates out of ascending order")
		}
	}
	p := &Prepared{params: &m.p, update: s.Kind == stmt.Update, ix: make([]prepIndex, len(ids))}
	tables := s.Tables
	if p.update {
		tables = []string{s.UpdateTable()}
	}
	p.tables = make([]prepTable, len(tables))
	members := make([]uint64, len(tables))
	for ti, name := range tables {
		t := m.cat.MustTable(name)
		view := s.View(name)
		pt := &p.tables[ti]
		pt.rows, pt.out, pt.seq = t.Rows, t.Rows*view.Selectivity, m.p.seqScanCost(t.Pages(), t.Rows)
		var leads []string
		for i, id := range ids {
			def := m.reg.Get(id)
			if def.Table != name {
				continue
			}
			bit := uint64(1) << i
			members[ti] |= bit
			x := &p.ix[i]
			a := m.access(def, view, t.Rows)
			if a.ok {
				pt.scans |= bit
				x.scan = a.cost
			}
			if a.usable {
				pt.usable |= bit
				x.sel, x.leafScan = a.sel, a.leafScan
			}
			if matchRows, found := probeRows(t, def.LeadingColumn()); found {
				x.probe, _ = m.probeOption(def, def.LeadingColumn(), view, matchRows)
			}
			if x.lead = slices.Index(leads, def.LeadingColumn()); x.lead < 0 {
				x.lead = len(leads)
				leads = append(leads, def.LeadingColumn())
			}
		}
	}
	if p.update {
		table := tables[0]
		p.affected = m.cat.MustTable(table).Rows * s.PredSelectivity(table)
		for rest := members[0]; rest != 0; rest &= rest - 1 {
			if containsAny(m.reg.Get(ids[bits.TrailingZeros64(rest)]).Columns, s.SetColumns) {
				p.maint |= rest & -rest
			}
		}
		return p
	}
	if len(tables) > 1 {
		p.prepareJoins(m, s, ids, members)
	}
	return p
}

// prepareJoins resolves every connected join order with its per-step
// probe slot, distinct count and row estimate, and one slot per distinct
// (table position, join column) some order joins through — the part of
// queryCost and planOrder that no configuration changes.
func (p *Prepared) prepareJoins(m *Model, s *stmt.Statement, ids []index.ID, members []uint64) {
	tables := s.Tables
	type slotKey struct {
		table int
		col   string
	}
	var keys []slotKey
	slotOf := func(ti int, col string) int {
		if k := slices.Index(keys, slotKey{ti, col}); k >= 0 {
			return k
		}
		var opts uint64
		if _, found := probeRows(m.cat.MustTable(tables[ti]), col); found {
			for rest := members[ti]; rest != 0; rest &= rest - 1 {
				if m.reg.Get(ids[bits.TrailingZeros64(rest)]).LeadingColumn() == col {
					opts |= rest & -rest
				}
			}
		}
		keys = append(keys, slotKey{ti, col})
		p.slots = append(p.slots, opts)
		return len(keys) - 1
	}
	links := joinLinks(s)
	visit := func(order []int) {
		o := prepOrder{first: order[0], rows: p.tables[order[0]].out}
		for oi := 1; oi < len(order); oi++ {
			ti := order[oi]
			col, connected := connectingLink(links, ti, order[:oi])
			if !connected {
				return
			}
			o.steps = append(o.steps, prepStep{table: ti, slot: slotOf(ti, col), rows: o.rows})
			o.rows = joinRows(o.rows, p.tables[ti].out, m.joinDistinct(tables[ti], col))
		}
		p.orders = append(p.orders, o)
	}
	order := make([]int, len(tables))
	for i := range order {
		order[i] = i
	}
	if len(tables) <= m.p.MaxPermutedTables {
		permute(order, 0, visit)
	} else {
		visit(order)
	}
}

// planCost is one priced access or join step: a cost and the mask of the
// indices it uses.
type planCost struct {
	cost float64
	used uint64
}

// prepScratch is CostMask's per-call scratch.
type prepScratch struct {
	scans  []planCost // by table position
	probes []planCost // by probe slot; cost +Inf when the slot offers none
}

var prepScratchPool = sync.Pool{New: func() any { return &prepScratch{} }}

// CostMask returns the cost of the statement under the candidates whose
// bits are set in mask, and the mask of the indices the chosen plan uses:
// CostUsed's cost and used set, bit for bit.
func (p *Prepared) CostMask(mask uint64) (float64, uint64) {
	if p.update {
		return p.updateCost(mask)
	}
	if len(p.tables) == 1 {
		r := p.scan(&p.tables[0], mask)
		return p.params.outputCost(r.cost, p.tables[0].out), r.used
	}

	sc := prepScratchPool.Get().(*prepScratch)
	defer prepScratchPool.Put(sc)
	sc.scans = sc.scans[:0]
	for ti := range p.tables {
		sc.scans = append(sc.scans, p.scan(&p.tables[ti], mask))
	}
	sc.probes = sc.probes[:0]
	for _, opts := range p.slots {
		best := planCost{cost: math.Inf(1)}
		for m := mask & opts; m != 0; m &= m - 1 {
			if c := p.ix[bits.TrailingZeros64(m)].probe; c < best.cost {
				best = planCost{c, m & -m}
			}
		}
		sc.probes = append(sc.probes, best)
	}

	bestCost := math.Inf(1)
	var bestUsed uint64
	for oi := range p.orders {
		o := &p.orders[oi]
		cost, used := sc.scans[o.first].cost, sc.scans[o.first].used
		for _, st := range o.steps {
			step := planCost{cost: math.Inf(1)}
			// Index nested-loop join.
			if pr := sc.probes[st.slot]; !math.IsInf(pr.cost, 1) {
				if c := st.rows * pr.cost; c < step.cost {
					step = planCost{c, pr.used}
				}
			}
			inner := sc.scans[st.table]
			if h := p.params.hashJoinCost(inner.cost, st.rows, p.tables[st.table].out); h < step.cost {
				step = planCost{h, inner.used}
			}
			cost += step.cost
			used |= step.used
		}
		if cost < bestCost {
			bestCost = p.params.outputCost(cost, o.rows)
			bestUsed = used
		}
	}
	if math.IsInf(bestCost, 1) {
		// No connected order: the cross product.
		var total, rows float64 = 0, 1
		var used uint64
		for ti, r := range sc.scans {
			total += r.cost
			rows *= math.Max(p.tables[ti].out, 1)
			used |= r.used
		}
		return p.params.outputCost(total, rows), used
	}
	return bestCost, bestUsed
}

// scan is scanTable over the present members of one table.
func (p *Prepared) scan(t *prepTable, mask uint64) planCost {
	best := planCost{cost: t.seq}
	for m := mask & t.scans; m != 0; m &= m - 1 {
		if c := p.ix[bits.TrailingZeros64(m)].scan; c < best.cost {
			best = planCost{c, m & -m}
		}
	}
	for a := mask & t.usable; a != 0; a &= a - 1 {
		x := &p.ix[bits.TrailingZeros64(a)]
		for b := a & (a - 1); b != 0; b &= b - 1 {
			y := &p.ix[bits.TrailingZeros64(b)]
			if x.lead == y.lead {
				continue // same predicate: no extra filtering power
			}
			if c := p.params.intersectCost(x.sel, x.leafScan, y.sel, y.leafScan, t.rows); c < best.cost {
				best = planCost{c, a&-a | b&-b}
			}
		}
	}
	return best
}

// updateCost is Model.updateCost over the present members.
func (p *Prepared) updateCost(mask uint64) (float64, uint64) {
	where := p.scan(&p.tables[0], mask)
	total := p.params.heapWriteCost(where.cost, p.affected)
	used := where.used
	for m := mask & p.maint; m != 0; m &= m - 1 {
		total += p.params.maintCost(p.affected)
		used |= m & -m
	}
	return total, used
}
