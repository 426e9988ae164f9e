// Package index models secondary indices, immutable index sets, and the
// asymmetric transition cost δ between materialized configurations.
//
// Indices are interned in a Registry so that every distinct (table, column
// list) pair maps to exactly one ID. Algorithms in this repository pass
// around compact Set values (sorted ID slices) and consult the Registry for
// per-index metadata such as creation and drop costs.
package index

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ID identifies an interned index within a Registry.
type ID uint32

// Invalid is the zero ID; Registry never assigns it.
const Invalid ID = 0

// Index describes one secondary index on a table. The cost fields are in
// the same abstract unit as statement costs produced by the what-if
// optimizer (page reads).
type Index struct {
	ID      ID
	Table   string   // qualified table name, e.g. "tpch.lineitem"
	Columns []string // key columns, significant order

	// LeafPages estimates the size of the index leaf level in pages.
	LeafPages float64
	// Height estimates the number of non-leaf levels traversed per probe.
	Height float64
	// CreateCost is δ+(a): the cost to materialize the index.
	CreateCost float64
	// DropCost is δ−(a): the cost to drop the index. Typically much
	// smaller than CreateCost, which is what makes δ asymmetric.
	DropCost float64
}

// Key returns the canonical interning key for the index definition.
func Key(table string, columns []string) string {
	return table + "(" + strings.Join(columns, ",") + ")"
}

// Key returns the canonical identity of this index.
func (ix *Index) Key() string { return Key(ix.Table, ix.Columns) }

// String renders the index like "tpch.lineitem(l_shipdate,l_partkey)".
func (ix *Index) String() string { return ix.Key() }

// LeadingColumn returns the first key column.
func (ix *Index) LeadingColumn() string { return ix.Columns[0] }

// Nested reports whether two indexes on the same table are near-redundant
// alternatives for the same access patterns: either their key column sets
// nest (one contains the other), or they share the leading key column (so
// both serve the same probe and prefix-scan patterns). Candidate selection
// keeps only the best representative per such family, as a DBMS advisor
// would.
func Nested(a, b *Index) bool {
	if a.Table != b.Table {
		return false
	}
	if a.LeadingColumn() == b.LeadingColumn() {
		return true
	}
	small, large := a, b
	if len(small.Columns) > len(large.Columns) {
		small, large = large, small
	}
	return large.Covers(small.Columns)
}

// Covers reports whether every column in cols appears somewhere in the
// index key (used for covering-scan decisions).
func (ix *Index) Covers(cols []string) bool {
	for _, c := range cols {
		found := false
		for _, k := range ix.Columns {
			if k == c {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Registry interns index definitions and owns the ID space. The zero value
// is ready to use. Registry is safe for concurrent use; interned
// definitions are immutable, so pointers returned by Get stay valid. Note
// that concurrent Intern calls make ID assignment order scheduling-
// dependent — callers that need deterministic IDs (everything keyed or
// tie-broken by ID order) should intern from one goroutine.
type Registry struct {
	mu    sync.RWMutex
	byKey map[string]ID
	defs  []*Index // defs[i] has ID i+1

	// snapshot holds the current defs slice for lock-free Get: Intern
	// publishes a fresh header after every append, readers load it with
	// one atomic. Interned definitions are immutable, so a slightly stale
	// snapshot is only ever missing IDs the reader cannot hold yet.
	snapshot atomic.Pointer[[]*Index]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]ID)}
}

// Intern registers the index defined by proto (ID field ignored) and
// returns its canonical ID. If an index with the same table and columns is
// already registered, the existing ID is returned and the stored definition
// is left untouched.
func (r *Registry) Intern(proto Index) ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byKey == nil {
		r.byKey = make(map[string]ID)
	}
	key := Key(proto.Table, proto.Columns)
	if id, ok := r.byKey[key]; ok {
		return id
	}
	if len(proto.Columns) == 0 {
		panic("index: Intern called with no key columns")
	}
	id := ID(len(r.defs) + 1)
	def := proto // copy
	def.ID = id
	def.Columns = append([]string(nil), proto.Columns...)
	r.defs = append(r.defs, &def)
	r.byKey[key] = id
	defs := r.defs
	r.snapshot.Store(&defs)
	return id
}

// Lookup returns the ID for an index definition if it has been interned.
func (r *Registry) Lookup(table string, columns []string) (ID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byKey[Key(table, columns)]
	return id, ok
}

// Get returns the definition for id. It panics on an unknown ID, which
// always indicates a programming error (IDs only come from Intern). The
// hot path is one atomic load — the cost model resolves definitions on
// every what-if optimization, where the read lock was measurable.
func (r *Registry) Get(id ID) *Index {
	if sp := r.snapshot.Load(); sp != nil {
		if defs := *sp; id != Invalid && int(id) <= len(defs) {
			return defs[id-1]
		}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id == Invalid || int(id) > len(r.defs) {
		panic(fmt.Sprintf("index: unknown ID %d", id))
	}
	return r.defs[id-1]
}

// Len reports how many indices have been interned.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.defs)
}

// CheckIDs returns an error unless every ID in ids names a definition in
// r: none is Invalid and none is beyond Len. Restores call it on every ID
// a persisted state carries, since that state comes from outside the
// process and Get panics on an unknown ID.
func (r *Registry) CheckIDs(ids ...ID) error {
	n := r.Len()
	for _, id := range ids {
		if id == Invalid || int(id) > n {
			return fmt.Errorf("index ID %d outside registry size %d", id, n)
		}
	}
	return nil
}

// All returns the definitions of every interned index in ID order.
func (r *Registry) All() []*Index {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Index, len(r.defs))
	copy(out, r.defs)
	return out
}

// RestoreRegistry rebuilds a registry from definitions exported in ID
// order (the shape All returns, as value copies). Every definition is
// re-interned, which must reassign it the ID it held before — the
// snapshot codec's guarantee that persisted index IDs stay meaningful
// across a restart. A gap, duplicate, or out-of-order definition is an
// error, not a silent renumbering.
func RestoreRegistry(defs []Index) (*Registry, error) {
	r := NewRegistry()
	for i, def := range defs {
		want := ID(i + 1)
		if def.ID != want {
			return nil, fmt.Errorf("index: definition %d has ID %d, want %d", i, def.ID, want)
		}
		got := r.Intern(def)
		if got != want {
			return nil, fmt.Errorf("index: %s re-interned as ID %d, want %d (duplicate definition?)", def.Key(), got, want)
		}
	}
	return r, nil
}

// Compact rebuilds the ID space over the live indices: definitions
// outside live are dropped, survivors are renumbered densely in ascending
// old-ID order, and the returned remap table translates old IDs to new
// ones (remap[old] == Invalid marks a dropped definition). Renumbering in
// ascending order keeps the remap monotone on live IDs, which is what
// lets callers translate sorted sets and WFA bit assignments without
// re-sorting.
//
// Compact must not run concurrently with readers that hold IDs: every ID
// minted before the call is reinterpreted (or invalidated) by it. The
// tuner runs it between statements, behind the session's single-writer
// loop, and follows it by remapping all retained state.
func (r *Registry) Compact(live Set) []ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	remap := make([]ID, len(r.defs)+1)
	defs := make([]*Index, 0, live.Len())
	byKey := make(map[string]ID, live.Len())
	for i, def := range r.defs {
		old := ID(i + 1)
		if !live.Contains(old) {
			continue
		}
		id := ID(len(defs) + 1)
		nd := *def // definitions are shared immutable; renumber a copy
		nd.ID = id
		defs = append(defs, &nd)
		byKey[nd.Key()] = id
		remap[old] = id
	}
	r.defs = defs
	r.byKey = byKey
	snap := defs
	r.snapshot.Store(&snap)
	return remap
}

// CreateCost returns δ+(id).
func (r *Registry) CreateCost(id ID) float64 { return r.Get(id).CreateCost }

// DropCost returns δ−(id).
func (r *Registry) DropCost(id ID) float64 { return r.Get(id).DropCost }

// Delta computes the transition cost δ(from, to): the cost to create every
// index in to−from plus the cost to drop every index in from−to. Delta
// satisfies the triangle inequality but is not symmetric.
func (r *Registry) Delta(from, to Set) float64 {
	var total float64
	i, j := 0, 0
	for i < len(from.ids) || j < len(to.ids) {
		switch {
		case j >= len(to.ids) || (i < len(from.ids) && from.ids[i] < to.ids[j]):
			total += r.Get(from.ids[i]).DropCost
			i++
		case i >= len(from.ids) || from.ids[i] > to.ids[j]:
			total += r.Get(to.ids[j]).CreateCost
			j++
		default: // equal: present on both sides
			i++
			j++
		}
	}
	return total
}

// Set is an immutable, sorted set of index IDs. The zero value is the
// empty set. Sets are small (tens of elements) so operations use simple
// merge scans over sorted slices.
type Set struct {
	ids []ID
}

// EmptySet is the configuration with no indices.
var EmptySet = Set{}

// NewSet builds a set from the given IDs (duplicates allowed, order free).
// Already-sorted unique input — the common case, since most callers
// enumerate existing sets in order — is copied without the sort.
func NewSet(ids ...ID) Set {
	if len(ids) == 0 {
		return Set{}
	}
	ascending := true
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			ascending = false
			break
		}
	}
	if ascending {
		return Set{ids: append([]ID(nil), ids...)}
	}
	sorted := append([]ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:1]
	for _, id := range sorted[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return Set{ids: out}
}

// Len reports the number of indices in the set.
func (s Set) Len() int { return len(s.ids) }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s.ids) == 0 }

// IDs returns a copy of the member IDs in ascending order.
func (s Set) IDs() []ID { return append([]ID(nil), s.ids...) }

// First returns the smallest member ID, or Invalid for the empty set. It
// exists so ordering code (e.g. partition normalization) need not copy
// the whole member slice just to look at one element.
func (s Set) First() ID {
	if len(s.ids) == 0 {
		return Invalid
	}
	return s.ids[0]
}

// At returns the i-th smallest member (0 ≤ i < Len). Together with Len
// it supports plain index loops where the Each closure shows up in
// profiles.
func (s Set) At(i int) ID { return s.ids[i] }

// Contains reports membership of id.
func (s Set) Contains(id ID) bool {
	lo, hi := 0, len(s.ids)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.ids[mid] < id:
			lo = mid + 1
		case s.ids[mid] > id:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Equal reports whether s and t have identical members.
func (s Set) Equal(t Set) bool {
	if len(s.ids) != len(t.ids) {
		return false
	}
	for i := range s.ids {
		if s.ids[i] != t.ids[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t. When one side contains the other the larger set
// is returned as-is — sets are immutable, so sharing is safe — which
// keeps repeated unions against a slowly-growing accumulator (candidate
// universes, partition unions) allocation-free in the steady state.
func (s Set) Union(t Set) Set {
	if s.Empty() {
		return t
	}
	if t.Empty() {
		return s
	}
	if t.SubsetOf(s) {
		return s
	}
	if s.SubsetOf(t) {
		return t
	}
	out := make([]ID, 0, len(s.ids)+len(t.ids))
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] < t.ids[j]:
			out = append(out, s.ids[i])
			i++
		case s.ids[i] > t.ids[j]:
			out = append(out, t.ids[j])
			j++
		default:
			out = append(out, s.ids[i])
			i++
			j++
		}
	}
	out = append(out, s.ids[i:]...)
	out = append(out, t.ids[j:]...)
	return Set{ids: out}
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	if s.Empty() || t.Empty() {
		return Set{}
	}
	var out []ID
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] < t.ids[j]:
			i++
		case s.ids[i] > t.ids[j]:
			j++
		default:
			out = append(out, s.ids[i])
			i++
			j++
		}
	}
	return Set{ids: out}
}

// Minus returns s − t.
func (s Set) Minus(t Set) Set {
	if s.Empty() || t.Empty() {
		return s
	}
	var out []ID
	i, j := 0, 0
	for i < len(s.ids) {
		if j >= len(t.ids) || s.ids[i] < t.ids[j] {
			out = append(out, s.ids[i])
			i++
		} else if s.ids[i] > t.ids[j] {
			j++
		} else {
			i++
			j++
		}
	}
	return Set{ids: out}
}

// Add returns s ∪ {id}.
func (s Set) Add(id ID) Set {
	if s.Contains(id) {
		return s
	}
	return s.Union(NewSet(id))
}

// Remove returns s − {id}.
func (s Set) Remove(id ID) Set {
	if !s.Contains(id) {
		return s
	}
	return s.Minus(NewSet(id))
}

// Remap translates every member through remap (old ID → new ID, the
// table Registry.Compact returns). The remap must be monotone on the
// members — Compact's renumbering is — so the result is built sorted
// without re-sorting. A member mapping to Invalid panics: live sets must
// be remapped only after retirement has removed every dropped index.
func (s Set) Remap(remap []ID) Set {
	if s.Empty() {
		return s
	}
	out := make([]ID, len(s.ids))
	for i, id := range s.ids {
		nid := remap[id]
		if nid == Invalid {
			panic("index: Remap of a set containing a dropped ID")
		}
		out[i] = nid
	}
	return Set{ids: out}
}

// Intersects reports whether s and t share at least one member. Unlike
// Intersect(t).Empty() it allocates nothing, which matters to the per-
// statement analysis loop that asks this question for every part of the
// stable partition.
func (s Set) Intersects(t Set) bool {
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] < t.ids[j]:
			i++
		case s.ids[i] > t.ids[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Disjoint reports whether s ∩ t = ∅.
func (s Set) Disjoint(t Set) bool { return !s.Intersects(t) }

// SubsetOf reports whether every member of s is in t, without
// allocating.
func (s Set) SubsetOf(t Set) bool {
	if len(s.ids) > len(t.ids) {
		return false
	}
	i, j := 0, 0
	for i < len(s.ids) {
		if j >= len(t.ids) || s.ids[i] < t.ids[j] {
			return false
		}
		if s.ids[i] > t.ids[j] {
			j++
			continue
		}
		i++
		j++
	}
	return true
}

// Key returns a compact string usable as a map key. Distinct sets always
// produce distinct keys.
func (s Set) Key() string {
	if s.Empty() {
		return ""
	}
	b := make([]byte, 0, 4*len(s.ids))
	for i, id := range s.ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	return string(b)
}

// String renders the set with index definitions resolved through reg, or
// raw IDs if reg is nil.
func (s Set) String() string {
	return "{" + s.Key() + "}"
}

// Format renders the set with human-readable index names.
func (s Set) Format(reg *Registry) string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, 0, len(s.ids))
	for _, id := range s.ids {
		parts = append(parts, reg.Get(id).Key())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Each calls fn for every member in ascending ID order.
func (s Set) Each(fn func(ID)) {
	for _, id := range s.ids {
		fn(id)
	}
}
