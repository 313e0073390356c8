package patmatch

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// naiveContains is the reference semantics: sorted transaction tx
// contains every item of sorted pattern items. Mirrors
// core.containsAll, which the compiled matcher replaces.
func naiveContains(tx, items []int32) bool {
	i := 0
	for _, it := range items {
		for i < len(tx) && tx[i] < it {
			i++
		}
		if i >= len(tx) || tx[i] != it {
			return false
		}
		i++
	}
	return true
}

func naiveMatch(patterns [][]int32, tx []int32) []int32 {
	var out []int32
	for i, p := range patterns {
		if naiveContains(tx, p) {
			out = append(out, int32(i))
		}
	}
	return out
}

func matchIDs(m *Matcher, tx []int32, s *Scratch) []int32 {
	got := m.Match(tx, s)
	if len(got) == 0 {
		return nil
	}
	return append([]int32(nil), got...)
}

// randomSortedSet draws k distinct items from [0, universe) sorted
// ascending.
func randomSortedSet(rng *rand.Rand, k, universe int) []int32 {
	seen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for len(out) < k {
		it := int32(rng.Intn(universe))
		if !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	slices.Sort(out)
	return out
}

func TestMatchHandBuilt(t *testing.T) {
	patterns := [][]int32{
		{1, 3},       // 0
		{1, 3, 7},    // 1: extends 0
		{1, 5},       // 2: shares prefix 1
		{2},          // 3: single item
		{},           // 4: empty pattern matches everything
		{1, 3},       // 5: duplicate of 0
		{8, 9, 1000}, // 6: disjoint branch, large item IDs
	}
	m := Compile(patterns)
	var s Scratch
	cases := []struct {
		tx   []int32
		want []int32
	}{
		{[]int32{}, []int32{4}},
		{[]int32{1, 3}, []int32{0, 4, 5}},
		{[]int32{1, 3, 7}, []int32{0, 1, 4, 5}},
		{[]int32{1, 5, 7}, []int32{2, 4}},
		{[]int32{2}, []int32{3, 4}},
		{[]int32{0, 4, 6}, []int32{4}},
		{[]int32{1, 2, 3, 5, 7, 8, 9, 1000}, []int32{0, 1, 2, 3, 4, 5, 6}},
		{[]int32{8, 9}, []int32{4}},
	}
	for _, c := range cases {
		if got := matchIDs(m, c.tx, &s); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Match(%v) = %v, want %v", c.tx, got, c.want)
		}
	}
	if m.NumPatterns() != len(patterns) {
		t.Errorf("NumPatterns = %d, want %d", m.NumPatterns(), len(patterns))
	}
	if m.MaxDepth() != 3 {
		t.Errorf("MaxDepth = %d, want 3", m.MaxDepth())
	}
}

func TestMatchEmptyPatternSet(t *testing.T) {
	m := Compile(nil)
	var s Scratch
	if got := m.Match([]int32{1, 2, 3}, &s); len(got) != 0 {
		t.Fatalf("empty pattern set matched %v", got)
	}
	if m.NumNodes() != 1 {
		t.Fatalf("empty matcher has %d nodes, want 1 (the root)", m.NumNodes())
	}
}

// TestMatchDifferentialRandom is the fuzz-style differential: across
// many random pattern sets (including empty and single-item patterns)
// and random transactions, the trie walk must agree exactly with the
// per-pattern containsAll reference.
func TestMatchDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		universe := 2 + rng.Intn(40)
		numPats := rng.Intn(30)
		patterns := make([][]int32, numPats)
		for i := range patterns {
			k := rng.Intn(5) // 0..4 items: empty and singles included
			if k > universe {
				k = universe
			}
			patterns[i] = randomSortedSet(rng, k, universe)
		}
		m := Compile(patterns)
		var s Scratch
		for row := 0; row < 25; row++ {
			k := rng.Intn(universe + 1)
			tx := randomSortedSet(rng, k, universe)
			got := matchIDs(m, tx, &s)
			want := naiveMatch(patterns, tx)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Match(%v) over %v = %v, want %v",
					trial, tx, patterns, got, want)
			}
		}
	}
}

// TestCompileDeterministic: the same pattern list compiles to the same
// bytes no matter how it is ordered relative to a permuted copy that
// maps IDs back — i.e. compilation depends only on the (itemset, ID)
// mapping, never on iteration order or allocation addresses.
func TestCompileDeterministic(t *testing.T) {
	patterns := [][]int32{{1, 2}, {1, 2, 3}, {4}, {1, 5}, {}}
	a := Compile(patterns)
	b := Compile(patterns)
	var ab, bb bytes.Buffer
	if err := gob.NewEncoder(&ab).Encode(a); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&bb).Encode(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("two compiles of the same pattern set produced different bytes")
	}
}

func TestGobRoundTrip(t *testing.T) {
	patterns := [][]int32{{1, 3}, {1, 3, 7}, {2, 9}, {}}
	m := Compile(patterns)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	var back Matcher
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, &back) {
		t.Fatalf("gob round trip changed the matcher:\n%+v\n%+v", m, &back)
	}
	var s Scratch
	tx := []int32{1, 3, 7, 9}
	if got, want := matchIDs(&back, tx, &s), matchIDs(m, tx, &s); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded matcher matches %v, original %v", got, want)
	}
}

// TestMatchZeroAlloc: with a grown scratch, matching allocates nothing
// per call — the contract the core predict path's 0 allocs/row budget
// rests on.
func TestMatchZeroAlloc(t *testing.T) {
	patterns := [][]int32{{1, 3}, {1, 3, 7}, {1, 5}, {2}, {4, 6, 8}}
	m := Compile(patterns)
	var s Scratch
	s.Grow(m)
	txs := [][]int32{{1, 3, 7}, {2, 4, 6, 8}, {0, 9}, {1, 2, 3, 4, 5, 6, 7, 8}}
	dst := make([]int32, 0, 16)
	allocs := testing.AllocsPerRun(200, func() {
		for _, tx := range txs {
			dst = m.MatchAppend(dst[:0], tx, 100, &s)
		}
	})
	if allocs != 0 {
		t.Fatalf("Match allocates %.1f times per run, want 0", allocs)
	}
}

// TestScratchGrowsWithoutGrow: a zero Scratch is legal — buffers grow
// on demand and stabilize.
func TestScratchGrowsWithoutGrow(t *testing.T) {
	patterns := [][]int32{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 6}, {2, 3}}
	m := Compile(patterns)
	var s Scratch
	tx := []int32{1, 2, 3, 4, 5, 6}
	if got, want := matchIDs(m, tx, &s), []int32{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Match = %v, want %v", got, want)
	}
	allocs := testing.AllocsPerRun(100, func() { m.Match(tx, &s) })
	if allocs != 0 {
		t.Fatalf("warmed zero Scratch still allocates %.1f/call", allocs)
	}
}

func TestMatchAppendOffsetsAndOrder(t *testing.T) {
	patterns := [][]int32{{9}, {1}, {1, 9}}
	m := Compile(patterns)
	var s Scratch
	dst := []int32{42}
	dst = m.MatchAppend(dst, []int32{1, 9}, 10, &s)
	want := []int32{42, 10, 11, 12}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("MatchAppend = %v, want %v (ascending IDs after the prefix)", dst, want)
	}
}
