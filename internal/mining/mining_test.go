package mining

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dfpc/internal/bitset"
	"dfpc/internal/guard"
)

// columns turns horizontal transactions into Mine's vertical input:
// column i holds the rows that contain item i.
func columns(tx [][]int32) []*bitset.Bitset {
	numItems := 0
	for _, t := range tx {
		for _, it := range t {
			numItems = max(numItems, int(it)+1)
		}
	}
	cols := make([]*bitset.Bitset, numItems)
	for i := range cols {
		cols[i] = bitset.New(len(tx))
	}
	for r, t := range tx {
		for _, it := range t {
			cols[it].Set(r)
		}
	}
	return cols
}

// mineAll and mineClosed run Mine on horizontal transactions.
func mineAll(tx [][]int32, opt Options) ([]Pattern, error) {
	opt.Closed = false
	return Mine(columns(tx), opt)
}

func mineClosed(tx [][]int32, opt Options) ([]Pattern, error) {
	opt.Closed = true
	return Mine(columns(tx), opt)
}

// classicTx is the textbook FP-growth example (Han et al., SIGMOD'00),
// re-coded with items a=0 .. p=15.
func classicTx() [][]int32 {
	// f,a,c,d,g,i,m,p / a,b,c,f,l,m,o / b,f,h,j,o / b,c,k,s,p / a,f,c,e,l,p,m,n
	toIDs := func(s string) []int32 {
		var out []int32
		for _, r := range s {
			out = append(out, int32(r-'a'))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	return [][]int32{
		toIDs("facdgimp"),
		toIDs("abcflmo"),
		toIDs("bfhjo"),
		toIDs("bcksp"),
		toIDs("afcelpmn"),
	}
}

// bruteForce enumerates every itemset over the items present in tx and
// returns those with support >= minSup. Exponential; only for tiny
// test inputs.
func bruteForce(tx [][]int32, minSup, maxLen int) []Pattern {
	itemSet := map[int32]bool{}
	for _, t := range tx {
		for _, it := range t {
			itemSet[it] = true
		}
	}
	var items []int32
	for it := range itemSet {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	var out []Pattern
	var cur []int32
	var rec func(start int)
	rec = func(start int) {
		if len(cur) > 0 {
			sup := 0
			for _, t := range tx {
				if containsAll(t, cur) {
					sup++
				}
			}
			if sup < minSup {
				return // supersets can only be rarer
			}
			out = append(out, Pattern{Items: append([]int32(nil), cur...), Support: sup})
		}
		if maxLen > 0 && len(cur) >= maxLen {
			return
		}
		for i := start; i < len(items); i++ {
			cur = append(cur, items[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// containsAll reports whether sorted transaction t contains every item
// of sorted candidate cand (merge scan).
func containsAll(t, cand []int32) bool {
	i := 0
	for _, c := range cand {
		for i < len(t) && t[i] < c {
			i++
		}
		if i >= len(t) || t[i] != c {
			return false
		}
		i++
	}
	return true
}

// filterClosed is the closed-pattern reference Mine is checked
// against: it keeps the patterns with no strict superset of equal
// support. Quadratic; only for small test inputs.
func filterClosed(ps []Pattern) []Pattern {
	var closed []Pattern
	for i, p := range ps {
		isClosed := true
		for j, q := range ps {
			if i != j && q.Support == p.Support && q.Len() > p.Len() && containsAll(q.Items, p.Items) {
				isClosed = false
				break
			}
		}
		if isClosed {
			closed = append(closed, p)
		}
	}
	return closed
}

func patternsEqual(a, b []Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	SortPatterns(a)
	SortPatterns(b)
	for i := range a {
		if a[i].Support != b[i].Support || len(a[i].Items) != len(b[i].Items) {
			return false
		}
		for j := range a[i].Items {
			if a[i].Items[j] != b[i].Items[j] {
				return false
			}
		}
	}
	return true
}

func randomTx(r *rand.Rand) [][]int32 {
	nTx := 5 + r.Intn(25)
	nItems := 4 + r.Intn(8)
	tx := make([][]int32, nTx)
	for i := range tx {
		var t []int32
		for it := int32(0); it < int32(nItems); it++ {
			if r.Intn(3) != 0 {
				t = append(t, it)
			}
		}
		tx[i] = t
	}
	return tx
}

func TestFPGrowthClassicExample(t *testing.T) {
	tx := classicTx()
	got, err := mineAll(tx, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(tx, 3, 0)
	if !patternsEqual(got, want) {
		t.Fatalf("all-frequent mismatch: got %d patterns, want %d\ngot: %v\nwant: %v",
			len(got), len(want), got, want)
	}
	// Spot-check the known frequent pair {c,m} with support 3
	// (c=2, m=12).
	found := false
	for _, p := range got {
		if len(p.Items) == 2 && p.Items[0] == 2 && p.Items[1] == 12 {
			found = p.Support == 3
		}
	}
	if !found {
		t.Fatal("pattern {c,m}:3 missing")
	}
}

func TestFPGrowthMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tx := randomTx(r)
		minSup := 1 + r.Intn(4)
		got, err := mineAll(tx, Options{MinSupport: minSup})
		if err != nil {
			return false
		}
		return patternsEqual(got, bruteForce(tx, minSup, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFPGrowthMaxLen(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tx := randomTx(r)
		minSup := 1 + r.Intn(3)
		maxLen := 1 + r.Intn(4)
		got, err := mineAll(tx, Options{MinSupport: minSup, MaxLen: maxLen})
		if err != nil {
			return false
		}
		return patternsEqual(got, bruteForce(tx, minSup, maxLen))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// maxLenFilter keeps the patterns of length ≤ maxLen (0 keeps all).
func maxLenFilter(ps []Pattern, maxLen int) []Pattern {
	var out []Pattern
	for _, p := range ps {
		if maxLen == 0 || p.Len() <= maxLen {
			out = append(out, p)
		}
	}
	return out
}

// TestFPCloseMatchesFilterClosed is the closed-mining oracle, MaxLen
// included: the result is the closed frequent sets of length ≤ MaxLen,
// i.e. the unbounded closed sets filtered by length. Fixed seeds keep
// the inputs on which a miner that closes within the length-bounded
// universe instead emits extra, non-closed sets.
func TestFPCloseMatchesFilterClosed(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		tx := randomTx(r)
		minSup := 1 + r.Intn(4)
		closed := filterClosed(bruteForce(tx, minSup, 0))
		for _, maxLen := range []int{0, 2, 3, 4} {
			got, err := mineClosed(tx, Options{MinSupport: minSup, MaxLen: maxLen})
			if err != nil {
				t.Fatal(err)
			}
			if want := maxLenFilter(closed, maxLen); !patternsEqual(got, want) {
				t.Fatalf("seed %d min_sup %d MaxLen %d:\n got %v\nwant %v", seed, minSup, maxLen, got, want)
			}
		}
	}
}

func TestFPCloseClassicExample(t *testing.T) {
	tx := classicTx()
	got, err := mineClosed(tx, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	all, _ := mineAll(tx, Options{MinSupport: 3})
	want := filterClosed(all)
	if !patternsEqual(got, want) {
		SortPatterns(got)
		SortPatterns(want)
		t.Fatalf("closed mismatch\ngot:  %v\nwant: %v", got, want)
	}
	if len(got) >= len(all) {
		t.Fatalf("closed (%d) should be fewer than all (%d)", len(got), len(all))
	}
}

func TestClosedCountNoLargerThanAll(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tx := randomTx(r)
		minSup := 1 + r.Intn(3)
		all, err1 := mineAll(tx, Options{MinSupport: minSup})
		closed, err2 := mineClosed(tx, Options{MinSupport: minSup})
		if err1 != nil || err2 != nil {
			return false
		}
		return len(closed) <= len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternBudget(t *testing.T) {
	tx := classicTx()
	got, err := mineAll(tx, Options{MinSupport: 1, MaxPatterns: 5})
	if !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("err = %v, want ErrPatternBudget", err)
	}
	if len(got) != 5 {
		t.Fatalf("returned %d patterns, want 5", len(got))
	}
	if _, err := mineClosed(tx, Options{MinSupport: 1, MaxPatterns: 3}); !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("closed err = %v, want ErrPatternBudget", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := mineAll(nil, Options{MinSupport: 0}); err == nil {
		t.Fatal("MinSupport=0 should error")
	}
	if _, err := mineClosed(nil, Options{MinSupport: -1}); err == nil {
		t.Fatal("negative MinSupport should error")
	}
	if _, err := mineAll(nil, Options{MinSupport: 1, MaxLen: -1}); err == nil {
		t.Fatal("negative MaxLen should error")
	}
}

func TestEmptyTransactions(t *testing.T) {
	got, err := mineAll(nil, Options{MinSupport: 1})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	got, err = mineClosed([][]int32{{}, {}}, Options{MinSupport: 1})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestSinglePathTree(t *testing.T) {
	// Identical transactions: every subset is frequent and one is closed.
	tx := [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	all, err := mineAll(tx, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 7 { // 2^3 - 1 subsets
		t.Fatalf("all = %d patterns, want 7", len(all))
	}
	closed, err := mineClosed(tx, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(closed) != 1 || closed[0].Len() != 3 || closed[0].Support != 3 {
		t.Fatalf("closed = %v, want [{0,1,2}:3]", closed)
	}
}

func TestSinglePathWithCountDrops(t *testing.T) {
	// Chain 0 ⊃ {0,1} ⊃ {0,1,2} with supports 4, 3, 2.
	tx := [][]int32{{0}, {0, 1}, {0, 1, 2}, {0, 1, 2}}
	closed, err := mineClosed(tx, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	SortPatterns(closed)
	if len(closed) != 3 {
		t.Fatalf("closed = %v, want 3 patterns", closed)
	}
	if closed[0].Support != 4 || closed[0].Len() != 1 {
		t.Fatalf("closed[0] = %v, want {0}:4", closed[0])
	}
	if closed[2].Support != 2 || closed[2].Len() != 3 {
		t.Fatalf("closed[2] = %v, want {0,1,2}:2", closed[2])
	}
}

func TestFilterClosedReference(t *testing.T) {
	ps := []Pattern{
		{Items: []int32{0}, Support: 3},
		{Items: []int32{0, 1}, Support: 3}, // closes {0}
		{Items: []int32{1}, Support: 4},
		{Items: []int32{2}, Support: 3}, // same support as {0,1} but not subset
	}
	closed := filterClosed(ps)
	SortPatterns(closed)
	if len(closed) != 3 {
		t.Fatalf("closed = %v", closed)
	}
	for _, p := range closed {
		if p.Len() == 1 && p.Items[0] == 0 {
			t.Fatal("{0} should have been filtered as non-closed")
		}
	}
}

func TestPatternKeyDistinct(t *testing.T) {
	a := Pattern{Items: []int32{1, 2}}
	b := Pattern{Items: []int32{1, 3}}
	c := Pattern{Items: []int32{1, 2}}
	if a.Key() == b.Key() {
		t.Fatal("distinct itemsets share a key")
	}
	if a.Key() != c.Key() {
		t.Fatal("equal itemsets have different keys")
	}
}

func BenchmarkMineClassic(b *testing.B) {
	cols := columns(classicTx())
	for _, closed := range []bool{false, true} {
		b.Run(fmt.Sprintf("closed=%v", closed), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Mine(cols, Options{MinSupport: 2, Closed: closed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMiningDeadline(t *testing.T) {
	// An expired deadline aborts promptly with ErrDeadline.
	tx := classicTx()
	for name, run := range map[string]func() error{
		"all":    func() error { _, err := mineAll(tx, Options{MinSupport: 1, Guard: expiredGuard()}); return err },
		"closed": func() error { _, err := mineClosed(tx, Options{MinSupport: 1, Guard: expiredGuard()}); return err },
	} {
		if err := run(); !errors.Is(err, ErrDeadline) {
			t.Fatalf("%s: err = %v", name, err)
		}
	}
	// A generous deadline changes nothing.
	got, err := mineAll(tx, Options{MinSupport: 2, Guard: guard.New(nil, guard.Limits{Timeout: time.Hour})})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mineAll(tx, Options{MinSupport: 2})
	if !patternsEqual(got, want) {
		t.Fatal("deadline run differs from plain run")
	}
}
