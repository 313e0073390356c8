package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if b.Count() != 0 {
		t.Fatalf("Count = %d, want 0", b.Count())
	}
	if b.Any() {
		t.Fatal("Any() on empty bitset")
	}
}

func TestSetGet(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("Get(%d) false after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	if b.Get(2) {
		t.Fatal("Get(2) true for a bit never set")
	}
}

func TestSetIdempotent(t *testing.T) {
	b := New(10)
	b.Set(3)
	b.Set(3)
	if b.Count() != 1 {
		t.Fatalf("Count = %d, want 1", b.Count())
	}
}

func TestClear(t *testing.T) {
	b := FromIndices(130, []int{0, 63, 64, 129})
	b.Clear(64)
	b.Clear(64)
	b.Clear(5) // clearing an unset bit is a no-op
	if b.Get(64) || b.Count() != 3 {
		t.Fatalf("after Clear(64) twice: Count = %d, bits %v", b.Count(), b.Indices())
	}
	b.Clear(0)
	b.Clear(129)
	if got := b.Indices(); len(got) != 1 || got[0] != 63 {
		t.Fatalf("Indices = %v, want [63]", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, i := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", i)
				}
			}()
			b.Set(i)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Clear(%d) did not panic", i)
				}
			}()
			b.Clear(i)
		}()
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFromIndices(t *testing.T) {
	b := FromIndices(100, []int{5, 70, 99})
	if b.Count() != 3 || !b.Get(5) || !b.Get(70) || !b.Get(99) {
		t.Fatalf("FromIndices wrong contents: %v", b.Indices())
	}
}

func TestAndOr(t *testing.T) {
	a := FromIndices(70, []int{1, 2, 3, 65})
	b := FromIndices(70, []int{2, 3, 4, 66})

	and := a.Clone()
	and.And(b)
	if got := and.Indices(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("And = %v, want [2 3]", got)
	}

	or := a.Clone()
	or.Or(b)
	if got := or.Count(); got != 6 {
		t.Fatalf("Or count = %d, want 6", got)
	}
}

func TestAndCount(t *testing.T) {
	a := FromIndices(128, []int{0, 10, 64, 100})
	b := FromIndices(128, []int{10, 64, 127})
	if got := a.AndCount(b); got != 2 {
		t.Fatalf("AndCount = %d, want 2", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("And on mismatched lengths did not panic")
		}
	}()
	a.And(b)
}

func TestEqual(t *testing.T) {
	a := FromIndices(90, []int{1, 89})
	b := FromIndices(90, []int{1, 89})
	c := FromIndices(90, []int{1})
	d := FromIndices(91, []int{1, 89})
	if !a.Equal(b) {
		t.Fatal("a != b")
	}
	if a.Equal(c) {
		t.Fatal("a == c")
	}
	if a.Equal(d) {
		t.Fatal("a == d despite length mismatch")
	}
}

func TestSetAllRespectsLength(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 129} {
		b := New(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Fatalf("SetAll on n=%d: Count = %d", n, got)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromIndices(64, []int{7})
	c := a.Clone()
	c.Set(8)
	if a.Get(8) {
		t.Fatal("mutating clone changed original")
	}
}

func TestCopyFrom(t *testing.T) {
	a := FromIndices(64, []int{7})
	b := New(64)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom produced unequal bitset")
	}
}

func TestIndicesAndForEachOrder(t *testing.T) {
	want := []int{0, 5, 63, 64, 127, 128}
	b := FromIndices(200, want)
	got := b.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestString(t *testing.T) {
	b := FromIndices(5, []int{0, 3})
	if got := b.String(); got != "10010" {
		t.Fatalf("String = %q, want 10010", got)
	}
}

// randomPair builds two random same-length bitsets plus the reference
// boolean-slice model, used by the property tests below.
func randomPair(r *rand.Rand) (a, b *Bitset, am, bm []bool) {
	n := 1 + r.Intn(300)
	a, b = New(n), New(n)
	am, bm = make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			a.Set(i)
			am[i] = true
		}
		if r.Intn(2) == 0 {
			b.Set(i)
			bm[i] = true
		}
	}
	return
}

func TestQuickAndMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, am, bm := randomPair(r)
		want := 0
		for i := range am {
			if am[i] && bm[i] {
				want++
			}
		}
		if a.AndCount(b) != want {
			return false
		}
		a.And(b)
		return a.Count() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickClearMatchesModel clears a random subset of a random
// bitset, some bits twice, and checks Get and Count against the
// []bool model.
func TestQuickClearMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _, am, _ := randomPair(r)
		for k := r.Intn(2 * a.Len()); k > 0; k-- {
			i := r.Intn(a.Len())
			a.Clear(i)
			am[i] = false
		}
		want := 0
		for i, set := range am {
			if a.Get(i) != set {
				return false
			}
			if set {
				want++
			}
		}
		return a.Count() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |a ∪ b| = |a| + |b| − |a ∩ b|
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, _, _ := randomPair(r)
		or := a.Clone()
		or.Or(b)
		return or.Count() == a.Count()+b.Count()-a.AndCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsetAfterAnd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, _, _ := randomPair(r)
		c := a.Clone()
		c.And(b)
		n := c.Count()
		return c.AndCount(a) == n && c.AndCount(b) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAndOfSubsetOfMatchModel checks AndOf's bits and count and
// SubsetOf against the []bool model.
func TestQuickAndOfSubsetOfMatchModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, am, bm := randomPair(r)
		c := New(a.Len())
		c.SetAll()
		n := c.AndOf(a, b)
		want, sub := 0, true
		for i := range am {
			if am[i] && bm[i] {
				want++
			}
			if am[i] && !bm[i] {
				sub = false
			}
			if c.Get(i) != (am[i] && bm[i]) {
				return false
			}
		}
		return n == want && c.Count() == want && a.SubsetOf(b) == sub &&
			c.SubsetOf(a) && c.SubsetOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _, _, _ := randomPair(r)
		back := FromIndices(a.Len(), a.Indices())
		return back.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAndCount(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := New(100000), New(100000)
	for i := 0; i < 100000; i++ {
		if r.Intn(2) == 0 {
			x.Set(i)
		}
		if r.Intn(2) == 0 {
			y.Set(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AndCount(y)
	}
}
