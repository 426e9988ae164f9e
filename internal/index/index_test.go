package index

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// testRegistry builds a registry with n synthetic indices whose create
// costs grow with the ID and whose drop costs stay small (asymmetric δ).
func testRegistry(t testing.TB, n int) *Registry {
	t.Helper()
	reg := NewRegistry()
	for i := 0; i < n; i++ {
		id := reg.Intern(Index{
			Table:      "t",
			Columns:    []string{string(rune('a' + i))},
			CreateCost: float64(10 * (i + 1)),
			DropCost:   1,
		})
		if id == Invalid {
			t.Fatalf("Intern returned Invalid")
		}
	}
	return reg
}

func TestInternDedupes(t *testing.T) {
	reg := NewRegistry()
	a := reg.Intern(Index{Table: "tpch.lineitem", Columns: []string{"l_shipdate"}, CreateCost: 5})
	b := reg.Intern(Index{Table: "tpch.lineitem", Columns: []string{"l_shipdate"}, CreateCost: 99})
	if a != b {
		t.Fatalf("same definition interned twice: %d vs %d", a, b)
	}
	if got := reg.Get(a).CreateCost; got != 5 {
		t.Fatalf("second Intern overwrote stored definition: CreateCost=%v", got)
	}
	c := reg.Intern(Index{Table: "tpch.lineitem", Columns: []string{"l_shipdate", "l_partkey"}})
	if c == a {
		t.Fatalf("different column list should get a new ID")
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
}

func TestInternColumnOrderMatters(t *testing.T) {
	reg := NewRegistry()
	ab := reg.Intern(Index{Table: "t", Columns: []string{"a", "b"}})
	ba := reg.Intern(Index{Table: "t", Columns: []string{"b", "a"}})
	if ab == ba {
		t.Fatalf("(a,b) and (b,a) are different indices")
	}
}

func TestLookup(t *testing.T) {
	reg := NewRegistry()
	id := reg.Intern(Index{Table: "t", Columns: []string{"x"}})
	got, ok := reg.Lookup("t", []string{"x"})
	if !ok || got != id {
		t.Fatalf("Lookup = (%v,%v), want (%v,true)", got, ok, id)
	}
	if _, ok := reg.Lookup("t", []string{"y"}); ok {
		t.Fatalf("Lookup of unknown index succeeded")
	}
}

func TestGetPanicsOnUnknown(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatalf("Get(999) did not panic")
		}
	}()
	reg.Get(999)
}

func TestInternEmptyColumnsPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatalf("Intern with no columns did not panic")
		}
	}()
	reg.Intern(Index{Table: "t"})
}

func TestCovers(t *testing.T) {
	ix := Index{Table: "t", Columns: []string{"a", "b", "c"}}
	cases := []struct {
		cols []string
		want bool
	}{
		{nil, true},
		{[]string{"a"}, true},
		{[]string{"c", "a"}, true},
		{[]string{"a", "d"}, false},
	}
	for _, c := range cases {
		if got := ix.Covers(c.cols); got != c.want {
			t.Errorf("Covers(%v) = %v, want %v", c.cols, got, c.want)
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(3, 1, 2, 3, 1)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedupe)", s.Len())
	}
	if got := s.IDs(); !reflect.DeepEqual(got, []ID{1, 2, 3}) {
		t.Fatalf("IDs = %v, want sorted [1 2 3]", got)
	}
	if !s.Contains(2) || s.Contains(4) {
		t.Fatalf("Contains wrong")
	}
	if EmptySet.Len() != 0 || !EmptySet.Empty() {
		t.Fatalf("EmptySet not empty")
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(3, 4)
	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet(3)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(NewSet(1, 2)) {
		t.Errorf("Minus = %v", got)
	}
	if got := a.Add(4); !got.Equal(NewSet(1, 2, 3, 4)) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Add(2); !got.Equal(a) {
		t.Errorf("Add existing = %v", got)
	}
	if got := a.Remove(2); !got.Equal(NewSet(1, 3)) {
		t.Errorf("Remove = %v", got)
	}
	if got := a.Remove(9); !got.Equal(a) {
		t.Errorf("Remove absent = %v", got)
	}
	if !NewSet(1, 2).SubsetOf(a) || a.SubsetOf(b) {
		t.Errorf("SubsetOf wrong")
	}
	if !NewSet(1).Disjoint(NewSet(2)) || NewSet(1).Disjoint(NewSet(1)) {
		t.Errorf("Disjoint wrong")
	}
}

func TestSetKeyDistinct(t *testing.T) {
	// Regression guard: keys must be unambiguous even for multi-digit IDs.
	a := NewSet(1, 23)
	b := NewSet(12, 3)
	if a.Key() == b.Key() {
		t.Fatalf("Key collision: %q", a.Key())
	}
	if EmptySet.Key() != "" {
		t.Fatalf("EmptySet key = %q", EmptySet.Key())
	}
	for _, c := range []struct {
		s    Set
		want string
	}{{NewSet(1), "1"}, {NewSet(3, 1, 2), "1,2,3"}, {NewSet(1000000, 42), "42,1000000"}} {
		if got := c.s.Key(); got != c.want {
			t.Fatalf("Key = %q, want %q", got, c.want)
		}
	}
}

func TestSetImmutability(t *testing.T) {
	a := NewSet(1, 2)
	_ = a.Union(NewSet(3))
	_ = a.Minus(NewSet(1))
	_ = a.Add(9)
	if !a.Equal(NewSet(1, 2)) {
		t.Fatalf("operations mutated receiver: %v", a)
	}
	ids := a.IDs()
	ids[0] = 99
	if !a.Equal(NewSet(1, 2)) {
		t.Fatalf("IDs() exposed internal storage")
	}
}

// randomSet draws a set over IDs 1..n.
func randomSet(rng *rand.Rand, n int) Set {
	var ids []ID
	for i := 1; i <= n; i++ {
		if rng.Intn(2) == 0 {
			ids = append(ids, ID(i))
		}
	}
	return NewSet(ids...)
}

func TestSetAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b, c := randomSet(rng, 10), randomSet(rng, 10), randomSet(rng, 10)
		if !a.Union(b).Equal(b.Union(a)) {
			t.Fatalf("union not commutative: %v %v", a, b)
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			t.Fatalf("intersect not commutative")
		}
		if !a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) {
			t.Fatalf("union not associative")
		}
		// De Morgan-ish inside a universe: a − (b ∪ c) == (a−b) ∩ (a−c)
		if !a.Minus(b.Union(c)).Equal(a.Minus(b).Intersect(a.Minus(c))) {
			t.Fatalf("difference law broken")
		}
		// Partition identity: a == (a∩b) ∪ (a−b)
		if !a.Equal(a.Intersect(b).Union(a.Minus(b))) {
			t.Fatalf("partition identity broken")
		}
	}
}

func TestDeltaBasics(t *testing.T) {
	reg := testRegistry(t, 4) // create costs 10,20,30,40; drop 1
	s12 := NewSet(1, 2)
	s23 := NewSet(2, 3)
	// 1 dropped (1), 3 created (30)
	if got := reg.Delta(s12, s23); got != 31 {
		t.Fatalf("Delta = %v, want 31", got)
	}
	if got := reg.Delta(s23, s12); got != 11 {
		t.Fatalf("reverse Delta = %v, want 11", got)
	}
	if got := reg.Delta(s12, s12); got != 0 {
		t.Fatalf("Delta to self = %v, want 0", got)
	}
	if got := reg.Delta(EmptySet, NewSet(4)); got != 40 {
		t.Fatalf("Delta create-only = %v, want 40", got)
	}
}

// TestDeltaTriangleInequality checks δ(X,Y) ≤ δ(X,Z) + δ(Z,Y) for random
// configurations — the property §2 states and the competitive analysis
// depends on.
func TestDeltaTriangleInequality(t *testing.T) {
	reg := testRegistry(t, 8)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		x, y, z := randomSet(rng, 8), randomSet(rng, 8), randomSet(rng, 8)
		direct := reg.Delta(x, y)
		viaZ := reg.Delta(x, z) + reg.Delta(z, y)
		if direct > viaZ+1e-9 {
			t.Fatalf("triangle violated: δ(%v,%v)=%v > %v via %v", x, y, direct, viaZ, z)
		}
	}
}

// TestDeltaAsymmetry verifies that δ is not symmetric (creation dominates
// drops), which is the technical obstacle Theorem 4.1 overcomes.
func TestDeltaAsymmetry(t *testing.T) {
	reg := testRegistry(t, 2)
	fwd := reg.Delta(EmptySet, NewSet(1))
	back := reg.Delta(NewSet(1), EmptySet)
	if fwd == back {
		t.Fatalf("δ unexpectedly symmetric: %v", fwd)
	}
}

// TestDeltaCycleIdentity checks Lemma A.2: the transition cost around a
// cycle equals the cost around the reversed cycle.
func TestDeltaCycleIdentity(t *testing.T) {
	reg := testRegistry(t, 6)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(4)
		seq := make([]Set, n+1)
		for i := range seq {
			seq[i] = randomSet(rng, 6)
		}
		forward := 0.0
		for i := 1; i <= n; i++ {
			forward += reg.Delta(seq[i-1], seq[i])
		}
		forward += reg.Delta(seq[n], seq[0])
		backward := 0.0
		for i := n; i >= 1; i-- {
			backward += reg.Delta(seq[i], seq[i-1])
		}
		backward += reg.Delta(seq[0], seq[n])
		if diff := forward - backward; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("cycle identity broken: fwd=%v back=%v", forward, backward)
		}
	}
}

func TestDeltaDecomposesOverDisjointParts(t *testing.T) {
	reg := testRegistry(t, 8)
	rng := rand.New(rand.NewSource(17))
	p1 := NewSet(1, 2, 3, 4)
	p2 := NewSet(5, 6, 7, 8)
	for i := 0; i < 500; i++ {
		x, y := randomSet(rng, 8), randomSet(rng, 8)
		whole := reg.Delta(x, y)
		split := reg.Delta(x.Intersect(p1), y.Intersect(p1)) +
			reg.Delta(x.Intersect(p2), y.Intersect(p2))
		if diff := whole - split; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("δ does not decompose: %v vs %v", whole, split)
		}
	}
}

func TestSetQuickProperties(t *testing.T) {
	// testing/quick over arbitrary uint8 slices as set constructors.
	f := func(xs, ys []uint8) bool {
		toSet := func(v []uint8) Set {
			ids := make([]ID, len(v))
			for i, x := range v {
				ids[i] = ID(x) + 1 // avoid Invalid
			}
			return NewSet(ids...)
		}
		a, b := toSet(xs), toSet(ys)
		u := a.Union(b)
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		i := a.Intersect(b)
		if !i.SubsetOf(a) || !i.SubsetOf(b) {
			return false
		}
		if u.Len() != a.Len()+b.Len()-i.Len() {
			return false
		}
		return a.Minus(b).Union(i).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFormat(t *testing.T) {
	reg := NewRegistry()
	id := reg.Intern(Index{Table: "tpch.orders", Columns: []string{"o_orderdate"}})
	got := NewSet(id).Format(reg)
	want := "{tpch.orders(o_orderdate)}"
	if got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
	if EmptySet.Format(reg) != "{}" {
		t.Fatalf("empty Format = %q", EmptySet.Format(reg))
	}
}

func TestIntersectsMatchesIntersect(t *testing.T) {
	// Intersects must agree with the allocating definition on arbitrary
	// inputs, including empty sets and identical sets.
	f := func(xs, ys []uint8) bool {
		toSet := func(v []uint8) Set {
			ids := make([]ID, len(v))
			for i, x := range v {
				ids[i] = ID(x) + 1
			}
			return NewSet(ids...)
		}
		a, b := toSet(xs), toSet(ys)
		if a.Intersects(b) != !a.Intersect(b).Empty() {
			return false
		}
		if a.Disjoint(b) != a.Intersect(b).Empty() {
			return false
		}
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFirst(t *testing.T) {
	if EmptySet.First() != Invalid {
		t.Fatalf("empty First = %v", EmptySet.First())
	}
	if got := NewSet(9, 3, 7).First(); got != 3 {
		t.Fatalf("First = %v, want 3", got)
	}
}

func TestNewSetSortedFastPath(t *testing.T) {
	// Ascending input (fast path) and permuted/duplicated input must
	// produce identical sets.
	asc := NewSet(1, 2, 5, 9)
	shuffled := NewSet(9, 5, 2, 1, 5, 2)
	if !asc.Equal(shuffled) {
		t.Fatalf("fast path diverges: %v vs %v", asc, shuffled)
	}
	if asc.Len() != 4 {
		t.Fatalf("Len = %d", asc.Len())
	}
}
