package mining

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dfpc/internal/bitset"
	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/parallel"
)

// twoClassDS builds a dataset where class 0 rows share pattern
// {a=0, b=0} and class 1 rows share {a=1, b=1}.
func twoClassDS() *dataset.Binary {
	d := &dataset.Dataset{
		Name: "two",
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Categorical, Values: []string{"0", "1"}},
			{Name: "b", Kind: dataset.Categorical, Values: []string{"0", "1"}},
			{Name: "c", Kind: dataset.Categorical, Values: []string{"0", "1"}},
		},
		Classes: []string{"neg", "pos"},
	}
	rows := [][]float64{
		{0, 0, 0}, {0, 0, 1}, {0, 0, 0}, {0, 0, 1}, // class 0
		{1, 1, 0}, {1, 1, 1}, {1, 1, 0}, {1, 1, 1}, // class 1
	}
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	d.Rows = rows
	d.Labels = labels
	b, err := dataset.Encode(d)
	if err != nil {
		panic(err)
	}
	return b
}

func TestMinePerClassFindsClassPatterns(t *testing.T) {
	b := twoClassDS()
	ps, err := MinePerClass(b, PerClassOptions{MinSupport: 0.9, Closed: true, MinLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Item IDs: a=0→0, a=1→1, b=0→2, b=1→3, c=0→4, c=1→5.
	// Expect {a=0,b=0} and {a=1,b=1}, each with global support 4.
	want := map[string]bool{
		Pattern{Items: []int32{0, 2}}.Key(): false,
		Pattern{Items: []int32{1, 3}}.Key(): false,
	}
	for _, p := range ps {
		if _, ok := want[p.Key()]; ok {
			want[p.Key()] = true
			if p.Support != 4 {
				t.Errorf("pattern %v: global support = %d, want 4", p.Items, p.Support)
			}
		}
	}
	for k, found := range want {
		if !found {
			t.Errorf("expected pattern with key %q not mined", k)
		}
	}
}

func TestMinePerClassMinLenDropsSingles(t *testing.T) {
	b := twoClassDS()
	ps, err := MinePerClass(b, PerClassOptions{MinSupport: 0.5, Closed: true, MinLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.Len() < 2 {
			t.Fatalf("pattern %v shorter than MinLen", p.Items)
		}
	}
}

func TestMinePerClassDedupes(t *testing.T) {
	b := twoClassDS()
	ps, err := MinePerClass(b, PerClassOptions{MinSupport: 0.1, Closed: false})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Key()] {
			t.Fatalf("duplicate pattern %v in union", p.Items)
		}
		seen[p.Key()] = true
	}
}

// checkCovers is the coverage oracle: every pattern MinePerClass
// returns carries its coverage bitmap over b, equal bit for bit to a
// fresh b.Cover of its items, with Count() == Support.
func checkCovers(t *testing.T, b *dataset.Binary, ps []Pattern) {
	t.Helper()
	for _, p := range ps {
		cov := p.Cover()
		if cov == nil || !cov.Equal(b.Cover(p.Items)) {
			t.Fatalf("pattern %v: cover %v, want b.Cover(items)", p.Items, cov)
		}
		if got := cov.Count(); got != p.Support {
			t.Fatalf("pattern %v: support %d, cover says %d", p.Items, p.Support, got)
		}
	}
}

func TestMinePerClassGlobalSupport(t *testing.T) {
	b := twoClassDS()
	ps, err := MinePerClass(b, PerClassOptions{MinSupport: 0.5, Closed: false})
	if err != nil {
		t.Fatal(err)
	}
	checkCovers(t, b, ps)
}

func TestMinePerClassBadMinSup(t *testing.T) {
	b := twoClassDS()
	for _, ms := range []float64{0, -0.5, 1.5} {
		if _, err := MinePerClass(b, PerClassOptions{MinSupport: ms}); err == nil {
			t.Errorf("MinSupport=%v should error", ms)
		}
	}
}

func TestMinePerClassBudget(t *testing.T) {
	b := twoClassDS()
	ps, err := MinePerClass(b, PerClassOptions{MinSupport: 0.1, Closed: false, MaxPatterns: 2})
	if !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("err = %v, want ErrPatternBudget", err)
	}
	// The budget-truncated union still carries its covers.
	if len(ps) != 2 {
		t.Fatalf("truncated union has %d patterns, want 2", len(ps))
	}
	checkCovers(t, b, ps)
}

// patternKeys renders a union as an ordered signature for equality
// checks across worker counts.
func patternKeys(ps []Pattern) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Key()
	}
	return out
}

// TestMinePerClassParallelDeterminism: the union (content, order, and
// recomputed supports) is identical at any worker count, with and
// without a pattern budget — including which sentinel trips.
func TestMinePerClassParallelDeterminism(t *testing.T) {
	b := twoClassDS()
	for _, budget := range []int{0, 2, 3, 1000} {
		base, baseErr := MinePerClass(b, PerClassOptions{
			MinSupport: 0.1, Closed: false, MinLen: 2, MaxPatterns: budget,
		})
		checkCovers(t, b, base)
		for _, w := range []parallel.Workers{2, 8} {
			got, err := MinePerClass(b, PerClassOptions{
				MinSupport: 0.1, Closed: false, MinLen: 2, MaxPatterns: budget,
				Workers: w,
			})
			if !errors.Is(err, baseErr) && !(err == nil && baseErr == nil) {
				t.Fatalf("budget=%d workers=%d: err = %v, sequential err = %v", budget, w, err, baseErr)
			}
			if !reflect.DeepEqual(patternKeys(got), patternKeys(base)) {
				t.Fatalf("budget=%d workers=%d: union keys diverge\n got %v\nwant %v",
					budget, w, patternKeys(got), patternKeys(base))
			}
			checkCovers(t, b, got)
			for i := range got {
				if got[i].Support != base[i].Support {
					t.Fatalf("budget=%d workers=%d: pattern %d support %d != %d",
						budget, w, i, got[i].Support, base[i].Support)
				}
			}
		}
	}
}

// relabel returns a copy of b whose item i is item perm[i]: the columns
// move, and every row is re-mapped and re-sorted. Classes, labels and
// the item space are shared with b.
func relabel(b *dataset.Binary, perm []int32) *dataset.Binary {
	rb := *b
	rb.Columns = make([]*bitset.Bitset, len(b.Columns))
	for i, c := range b.Columns {
		rb.Columns[perm[i]] = c
	}
	rb.Rows = make([][]int32, len(b.Rows))
	for r, row := range b.Rows {
		out := make([]int32, len(row))
		for k, it := range row {
			out[k] = perm[it]
		}
		slices.Sort(out)
		rb.Rows[r] = out
	}
	return &rb
}

// TestMinePerClassItemRelabeling is a metamorphic check: permuting the
// item ids of a datagen waveform (1,500 rows) leaves the pool mined at
// MaxLen 6, mapped back to the original ids, unchanged, covers
// included. A miner whose length cap depends on enumeration order
// fails it.
func TestMinePerClassItemRelabeling(t *testing.T) {
	d, err := datagen.ByName("waveform", 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := dataset.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, 1500)
	for i := range rows {
		rows[i] = i
	}
	b := full.Subset(rows)
	opt := PerClassOptions{MinSupport: 0.15, Closed: true, MinLen: 2, MaxLen: 6, Workers: 1}
	want, err := MinePerClass(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		perm := make([]int32, len(b.Columns))
		inv := make([]int32, len(perm))
		for i, j := range rand.New(rand.NewSource(seed)).Perm(len(perm)) {
			perm[i], inv[j] = int32(j), int32(i)
		}
		got, err := MinePerClass(relabel(b, perm), opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for k, it := range got[i].Items {
				got[i].Items[k] = inv[it]
			}
			slices.Sort(got[i].Items)
		}
		SortPatterns(got)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d patterns, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() || got[i].Support != want[i].Support ||
				!got[i].Cover().Equal(want[i].Cover()) {
				t.Fatalf("seed %d: pattern %d = %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}
