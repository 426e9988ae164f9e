package cost

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/stmt"
)

// BuildIndexProto sizes an index definition on the given table columns:
// leaf pages from key width and row count, probe height from the leaf
// size, creation cost as one table scan plus sort/write passes over the
// leaves, and the flat drop cost. The returned Index has no ID; intern it
// through the registry to obtain one.
func BuildIndexProto(cat *catalog.Catalog, p Params, table string, columns []string) index.Index {
	t := cat.MustTable(table)
	keyWidth := 16 // row locator + entry overhead
	for _, c := range columns {
		col, ok := t.Column(c)
		if !ok {
			panic("cost: index column " + c + " not in table " + table)
		}
		keyWidth += col.Width
	}
	leafPages := t.Rows * float64(keyWidth) / catalog.PageSize
	if leafPages < 1 {
		leafPages = 1
	}
	height := 1.0
	for span := leafPages; span > 1; span /= 256 {
		height++
	}
	return index.Index{
		Table:      table,
		Columns:    append([]string(nil), columns...),
		LeafPages:  leafPages,
		Height:     height,
		CreateCost: t.Pages() + p.CreateLeafFactor*leafPages,
		DropCost:   p.DropCost,
	}
}

// Extractor generates candidate indices for statements, playing the role
// of the DBMS extractIndices(q) service (line 1 of chooseCands, Figure 6).
// Candidates are interned in the shared registry so repeated extraction is
// idempotent.
type Extractor struct {
	cat *catalog.Catalog
	reg *index.Registry
	p   Params

	// MaxPerTable caps syntactic candidates per referenced table.
	MaxPerTable int
}

// NewExtractor builds an extractor over the model's catalog and registry.
func NewExtractor(m *Model) *Extractor {
	return &Extractor{cat: m.cat, reg: m.reg, p: m.p, MaxPerTable: 6}
}

// Extract returns the candidate indices relevant to s: single-column
// indices on predicate and join columns, composite (join, predicate) and
// (predicate, predicate) indices, and a covering candidate when the
// statement needs few columns. All candidates are interned.
func (e *Extractor) Extract(s *stmt.Statement) index.Set {
	var ids []index.ID
	for _, table := range s.Tables {
		ids = append(ids, e.resolve(table, e.candidates(s, table), false)...)
	}
	return index.NewSet(ids...)
}

// Peek computes exactly the set Extract would return, but resolves every
// candidate through Lookup instead of interning, so it never mutates the
// registry. ok is false when any candidate has not been interned yet.
//
// Deprecated: call Extract. e2ebench's layer pass is the last caller: its
// side copy times mining through Peek after the engine's own Extract has
// interned every candidate of the statement.
func (e *Extractor) Peek(s *stmt.Statement) (index.Set, bool) {
	var ids []index.ID
	for _, table := range s.Tables {
		got := e.resolve(table, e.candidates(s, table), true)
		if got == nil {
			return index.EmptySet, false
		}
		ids = append(ids, got...)
	}
	return index.NewSet(ids...), true
}

// candidates generates this table's candidate column sets in a
// deterministic priority order (resolve caps them at MaxPerTable).
//
// Construction order is intentionally independent of the predicates'
// selectivities: recurring query templates jitter their selectivities
// between instances, and selectivity-dependent column orders would spray
// near-duplicate composites (a,b)/(b,a) across the candidate universe.
// Redundant near-duplicates carry large mutual interactions, which both
// bloats the IBG analysis and forces the stable partition to drop
// interaction mass.
func (e *Extractor) candidates(s *stmt.Statement, table string) [][]string {
	// Sort a COPY of the cached per-table view: candidate generation must
	// stay read-only on the statement.
	preds := append([]stmt.Pred(nil), s.TablePreds(table)...)
	// Equality predicates first (better index prefixes), then by column
	// name — a deterministic order stable across re-instantiations of
	// the same query template.
	sort.SliceStable(preds, func(i, j int) bool {
		if preds[i].Eq != preds[j].Eq {
			return preds[i].Eq
		}
		return preds[i].Column < preds[j].Column
	})
	var joinCols []string
	seenJoin := make(map[string]bool)
	for _, j := range s.JoinsOn(table) {
		c := j.ColumnOn(table)
		if c != "" && !seenJoin[c] {
			seenJoin[c] = true
			joinCols = append(joinCols, c)
		}
	}
	sort.Strings(joinCols)

	var colSets [][]string
	add := func(cols ...string) {
		if len(cols) == 0 {
			return
		}
		// Skip duplicates within the column list.
		seen := make(map[string]bool)
		for _, c := range cols {
			if seen[c] {
				return
			}
			seen[c] = true
		}
		colSets = append(colSets, cols)
	}

	// Single-column candidates.
	for _, p := range preds {
		add(p.Column)
	}
	for _, c := range joinCols {
		add(c)
	}
	// (join, predicate) composites: serve index nested-loop probes with
	// pushed-down filters. One per join column, leading predicate only.
	for _, jc := range joinCols {
		if len(preds) > 0 {
			add(jc, preds[0].Column)
		}
	}
	// One (predicate, predicate) composite for multi-predicate tables.
	if len(preds) >= 2 {
		add(preds[0].Column, preds[1].Column)
	}
	// Update candidates need nothing beyond the predicate columns: wider
	// indices only add maintenance overhead.
	if s.Kind == stmt.Update {
		return colSets
	}
	// Covering candidate: every needed column, predicates first, the
	// rest in name order.
	needed := s.NeededColumns(table)
	if n := len(needed); n >= 2 && n <= 4 && len(preds) <= 2 {
		ordered := make([]string, 0, n)
		inPreds := make(map[string]bool)
		for _, p := range preds {
			inPreds[p.Column] = true
			ordered = append(ordered, p.Column)
		}
		var rest []string
		for _, c := range needed {
			if !inPreds[c] {
				rest = append(rest, c)
			}
		}
		sort.Strings(rest)
		add(append(ordered, rest...)...)
	}
	return colSets
}

// resolve turns up to MaxPerTable column sets into registry IDs, either
// interning them (Extract) or looking them up without mutation (peek=true,
// Peek). In peek mode a single missing definition aborts with nil: the
// cap and dedup are applied in the identical order either way, so a
// successful peek returns exactly the IDs the interning call would have.
func (e *Extractor) resolve(table string, colSets [][]string, peek bool) []index.ID {
	max := e.MaxPerTable
	if max <= 0 {
		max = len(colSets)
	}
	ids := make([]index.ID, 0, max)
	seen := make(map[string]bool)
	for _, cols := range colSets {
		if len(ids) >= max {
			break
		}
		key := index.Key(table, cols)
		if seen[key] {
			continue
		}
		seen[key] = true
		if peek {
			id, ok := e.reg.Lookup(table, cols)
			if !ok {
				return nil
			}
			ids = append(ids, id)
			continue
		}
		proto := BuildIndexProto(e.cat, e.p, table, cols)
		ids = append(ids, e.reg.Intern(proto))
	}
	return ids
}
