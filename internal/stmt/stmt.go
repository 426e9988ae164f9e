// Package stmt defines the logical statement model consumed by the what-if
// cost model: queries (conjunctive selections + equi-joins over one or more
// tables) and updates (predicate-qualified modifications of one table).
//
// Statements carry pre-estimated predicate selectivities. The SQL front end
// (package sqlmini) estimates them from catalog statistics; the workload
// generator assigns them directly.
package stmt

import (
	"fmt"
	"strings"
	"sync"
)

// Kind distinguishes queries from updates.
type Kind int

const (
	// Query is a read-only SELECT statement.
	Query Kind = iota
	// Update modifies rows of a single table and induces maintenance
	// cost on indexes whose key contains a modified column.
	Update
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Update {
		return "UPDATE"
	}
	return "QUERY"
}

// Pred is a conjunctive selection predicate on one column.
type Pred struct {
	Table       string  // qualified table name
	Column      string  // column name
	Selectivity float64 // estimated fraction of rows selected, in (0,1]
	Eq          bool    // true for equality, false for range
}

// String renders the predicate for diagnostics.
func (p Pred) String() string {
	op := "BETWEEN"
	if p.Eq {
		op = "="
	}
	return fmt.Sprintf("%s.%s %s [sel=%.4g]", p.Table, p.Column, op, p.Selectivity)
}

// Join is an equi-join between two table columns.
type Join struct {
	LeftTable   string
	LeftColumn  string
	RightTable  string
	RightColumn string
}

// Touches reports whether the join references the given table.
func (j Join) Touches(table string) bool {
	return j.LeftTable == table || j.RightTable == table
}

// ColumnOn returns the join column on the given table side, or "" if the
// join does not touch the table.
func (j Join) ColumnOn(table string) string {
	switch table {
	case j.LeftTable:
		return j.LeftColumn
	case j.RightTable:
		return j.RightColumn
	}
	return ""
}

// Statement is one workload element.
type Statement struct {
	// ID is the 1-based position in the workload (0 for ad-hoc
	// statements created outside a workload).
	ID   int
	Kind Kind

	// Tables lists the qualified tables accessed. Updates have exactly
	// one entry.
	Tables []string
	// Preds holds the conjunctive selection predicates.
	Preds []Pred
	// Joins holds the equi-join predicates (queries only).
	Joins []Join
	// Output lists explicitly projected columns per table; empty means
	// an aggregate like count(*) that needs only predicate and join
	// columns.
	Output []OutputCol

	// SetColumns lists the columns modified by an Update.
	SetColumns []string

	// SQL optionally carries a rendered SQL text for display.
	SQL string

	// tables caches the per-table views (predicates, selectivity, needed
	// columns) the cost model asks for on every what-if optimization —
	// tens of thousands of times per statement across an IBG build. The
	// cache is built once on first use; a statement must not be mutated
	// after its first cost evaluation.
	tablesOnce sync.Once
	tableViews map[string]*TableView
}

// TableView is the cached per-table derivation of a statement: what the
// cost model needs to price one table's access paths.
type TableView struct {
	// Preds are the selection predicates on the table.
	Preds []Pred
	// Selectivity is the product of the predicates' selectivities.
	Selectivity float64
	// Needed are the columns the statement must read from the table.
	Needed []string
}

// View returns the cached per-table view, computing all views on first
// use. Tables the statement does not touch share one empty view.
func (s *Statement) View(table string) *TableView {
	s.tablesOnce.Do(s.buildViews)
	if v, ok := s.tableViews[table]; ok {
		return v
	}
	return &emptyView
}

var emptyView = TableView{Selectivity: 1}

func (s *Statement) buildViews() {
	views := make(map[string]*TableView, len(s.Tables))
	get := func(table string) *TableView {
		v, ok := views[table]
		if !ok {
			v = &TableView{Selectivity: 1}
			views[table] = v
		}
		return v
	}
	for _, t := range s.Tables {
		get(t)
	}
	for _, p := range s.Preds {
		v := get(p.Table)
		v.Preds = append(v.Preds, p)
		v.Selectivity *= p.Selectivity
	}
	for t, v := range views {
		v.Needed = s.computeNeededColumns(t)
	}
	s.tableViews = views
}

// OutputCol is a projected column.
type OutputCol struct {
	Table  string
	Column string
}

// UpdateTable returns the single table modified by an update statement.
func (s *Statement) UpdateTable() string {
	if s.Kind != Update || len(s.Tables) == 0 {
		return ""
	}
	return s.Tables[0]
}

// HasTable reports whether the statement accesses the table.
func (s *Statement) HasTable(table string) bool {
	for _, t := range s.Tables {
		if t == table {
			return true
		}
	}
	return false
}

// TablePreds returns the selection predicates on one table. The returned
// slice is cached on the statement; callers must not modify it.
func (s *Statement) TablePreds(table string) []Pred {
	return s.View(table).Preds
}

// PredSelectivity returns the combined selectivity of all predicates on a
// table under the independence assumption (product of selectivities), or 1
// when the table has no predicates.
func (s *Statement) PredSelectivity(table string) float64 {
	return s.View(table).Selectivity
}

// JoinsOn returns the join predicates touching the table.
func (s *Statement) JoinsOn(table string) []Join {
	var out []Join
	for _, j := range s.Joins {
		if j.Touches(table) {
			out = append(out, j)
		}
	}
	return out
}

// NeededColumns returns the set of columns of a table the statement needs
// to read: predicate columns, join columns, projected columns, and (for
// updates) the modified columns. Used for covering-index decisions. The
// returned slice is cached on the statement; callers must not modify it.
func (s *Statement) NeededColumns(table string) []string {
	return s.View(table).Needed
}

func (s *Statement) computeNeededColumns(table string) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(c string) {
		if c != "" && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, p := range s.Preds {
		if p.Table == table {
			add(p.Column)
		}
	}
	for _, j := range s.Joins {
		add(j.ColumnOn(table))
	}
	for _, oc := range s.Output {
		if oc.Table == table {
			add(oc.Column)
		}
	}
	if s.Kind == Update && s.UpdateTable() == table {
		for _, c := range s.SetColumns {
			add(c)
		}
	}
	return out
}

// Summary renders a one-line description for logs and examples.
func (s *Statement) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d] %s %s", s.ID, s.Kind, strings.Join(s.Tables, "⋈"))
	if len(s.Preds) > 0 {
		fmt.Fprintf(&b, " preds=%d", len(s.Preds))
	}
	if s.Kind == Update {
		fmt.Fprintf(&b, " set=%s", strings.Join(s.SetColumns, ","))
	}
	return b.String()
}

// Validate performs structural sanity checks and returns a descriptive
// error for malformed statements. The cost model calls it in tests and the
// SQL front end calls it on every parse.
func (s *Statement) Validate() error {
	if len(s.Tables) == 0 {
		return fmt.Errorf("stmt: no tables")
	}
	if s.Kind == Update {
		if len(s.Tables) != 1 {
			return fmt.Errorf("stmt: update must access exactly one table, got %d", len(s.Tables))
		}
		if len(s.SetColumns) == 0 {
			return fmt.Errorf("stmt: update with no SET columns")
		}
		if len(s.Joins) != 0 {
			return fmt.Errorf("stmt: update with joins is not supported")
		}
	}
	for _, p := range s.Preds {
		if !s.HasTable(p.Table) {
			return fmt.Errorf("stmt: predicate on unlisted table %s", p.Table)
		}
		if p.Selectivity <= 0 || p.Selectivity > 1 {
			return fmt.Errorf("stmt: predicate %s has selectivity %g outside (0,1]", p, p.Selectivity)
		}
	}
	for _, j := range s.Joins {
		if !s.HasTable(j.LeftTable) || !s.HasTable(j.RightTable) {
			return fmt.Errorf("stmt: join references unlisted table (%s,%s)", j.LeftTable, j.RightTable)
		}
		if j.LeftTable == j.RightTable {
			return fmt.Errorf("stmt: self-join on %s is not supported", j.LeftTable)
		}
	}
	return nil
}
