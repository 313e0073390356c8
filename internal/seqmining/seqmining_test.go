package seqmining

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dfpc/internal/guard"
)

// bruteForceSeq enumerates all subsequences up to maxLen over the
// events present and returns those with support >= minSup.
func bruteForceSeq(db []Sequence, minSup, maxLen int) []Pattern {
	eventSet := map[int32]bool{}
	for _, s := range db {
		for _, e := range s {
			eventSet[e] = true
		}
	}
	var events []int32
	for e := range eventSet {
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })

	var out []Pattern
	var cur []int32
	var rec func()
	rec = func() {
		if len(cur) > 0 {
			sup := 0
			for _, s := range db {
				if Contains(s, cur) {
					sup++
				}
			}
			if sup < minSup {
				return
			}
			out = append(out, Pattern{Events: append([]int32(nil), cur...), Support: sup})
		}
		if maxLen > 0 && len(cur) >= maxLen {
			return
		}
		for _, e := range events {
			cur = append(cur, e)
			rec()
			cur = cur[:len(cur)-1]
		}
	}
	rec()
	return out
}

func patsEqual(a, b []Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	SortPatterns(a)
	SortPatterns(b)
	for i := range a {
		if a[i].Support != b[i].Support || len(a[i].Events) != len(b[i].Events) {
			return false
		}
		for j := range a[i].Events {
			if a[i].Events[j] != b[i].Events[j] {
				return false
			}
		}
	}
	return true
}

func TestContains(t *testing.T) {
	s := Sequence{1, 2, 3, 2, 4}
	cases := []struct {
		pat  []int32
		want bool
	}{
		{[]int32{1, 3, 4}, true},
		{[]int32{2, 2}, true},
		{[]int32{3, 1}, false},
		{[]int32{4, 4}, false},
		{nil, true},
		{[]int32{1, 2, 3, 2, 4}, true},
	}
	for _, c := range cases {
		if got := Contains(s, c.pat); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.pat, got, c.want)
		}
	}
}

func TestPrefixSpanSmall(t *testing.T) {
	db := []Sequence{
		{0, 1, 2},
		{0, 2},
		{1, 2},
		{0, 1},
	}
	got, err := PrefixSpan(db, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceSeq(db, 2, 0)
	if !patsEqual(got, want) {
		t.Fatalf("mismatch\ngot:  %v\nwant: %v", got, want)
	}
}

func TestPrefixSpanMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := make([]Sequence, 4+r.Intn(12))
		for i := range db {
			n := 1 + r.Intn(6)
			s := make(Sequence, n)
			for j := range s {
				s[j] = int32(r.Intn(4))
			}
			db[i] = s
		}
		minSup := 1 + r.Intn(3)
		maxLen := 1 + r.Intn(4)
		got, err := PrefixSpan(db, Options{MinSupport: minSup, MaxLen: maxLen})
		if err != nil {
			return false
		}
		return patsEqual(got, bruteForceSeq(db, minSup, maxLen))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSpanRepeatedEvents(t *testing.T) {
	// Patterns with repeated events must be found: {0,0} has support 2.
	db := []Sequence{{0, 1, 0}, {0, 0}, {0, 1}}
	got, err := PrefixSpan(db, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range got {
		if len(p.Events) == 2 && p.Events[0] == 0 && p.Events[1] == 0 {
			found = p.Support == 2
		}
	}
	if !found {
		t.Fatalf("pattern {0,0}:2 not mined: %v", got)
	}
}

func TestPrefixSpanBudget(t *testing.T) {
	db := []Sequence{{0, 1, 2, 3}, {0, 1, 2, 3}}
	_, err := PrefixSpan(db, Options{MinSupport: 1, MaxPatterns: 3})
	if !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("err = %v, want budget error", err)
	}
}

func TestPrefixSpanValidation(t *testing.T) {
	if _, err := PrefixSpan(nil, Options{MinSupport: 0}); err == nil {
		t.Fatal("MinSupport=0 should error")
	}
}

// seqDataset builds a sequence classification task: class 0 sequences
// contain the ordered motif 5→6, class 1 the motif 6→5, embedded in
// random noise. Single events are identical across classes; only the
// ORDER discriminates — the sequential analogue of the paper's XOR.
func seqDataset(n int, seed int64) (db []Sequence, y []int) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := i % 2
		var s Sequence
		for j := 0; j < 3+r.Intn(4); j++ {
			s = append(s, int32(r.Intn(5)))
		}
		if c == 0 {
			s = append(s, 5)
			s = append(s, int32(r.Intn(5)))
			s = append(s, 6)
		} else {
			s = append(s, 6)
			s = append(s, int32(r.Intn(5)))
			s = append(s, 5)
		}
		for j := 0; j < r.Intn(3); j++ {
			s = append(s, int32(r.Intn(5)))
		}
		db = append(db, s)
		y = append(y, c)
	}
	return db, y
}

func TestSequenceClassifierOrderMotifs(t *testing.T) {
	db, y := seqDataset(120, 3)
	clf := &Classifier{MinSupport: 0.4, MaxLen: 3}
	if err := clf.Fit(context.Background(), db, y, 2); err != nil {
		t.Fatal(err)
	}
	if clf.FeatureCount == 0 {
		t.Fatal("no subsequence features selected")
	}
	pred, err := clf.PredictAll(db)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(pred))
	if acc < 0.95 {
		t.Fatalf("training accuracy %v; order motifs not captured", acc)
	}
}

func TestSequenceClassifierHoldout(t *testing.T) {
	db, y := seqDataset(200, 9)
	clf := &Classifier{MinSupport: 0.4, MaxLen: 3}
	if err := clf.Fit(context.Background(), db[:150], y[:150], 2); err != nil {
		t.Fatal(err)
	}
	pred, err := clf.PredictAll(db[150:])
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range pred {
		if pred[i] == y[150+i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(pred)); acc < 0.85 {
		t.Fatalf("holdout accuracy %v", acc)
	}
}

func TestSequenceClassifierErrors(t *testing.T) {
	clf := &Classifier{}
	if err := clf.Fit(context.Background(), nil, nil, 2); err == nil {
		t.Fatal("empty db should error")
	}
	if err := clf.Fit(context.Background(), []Sequence{{0}}, []int{0, 1}, 2); err == nil {
		t.Fatal("length mismatch should error")
	}
	if err := clf.Fit(context.Background(), []Sequence{{0}}, []int{9}, 2); err == nil {
		t.Fatal("bad label should error")
	}
	if _, err := (&Classifier{}).Predict(Sequence{0}); err == nil {
		t.Fatal("Predict before Fit should error")
	}
	db, y := seqDataset(40, 1)
	if err := (&Classifier{MaxPatterns: 2}).Fit(context.Background(), db, y, 2); !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("tiny MaxPatterns: err = %v, want ErrPatternBudget", err)
	}
	// Class 0 mines exactly MaxPatterns patterns at the classifier's
	// default support and length; class 1 must not then mine unbounded.
	var part0 []Sequence
	for i, s := range db {
		if y[i] == 0 {
			part0 = append(part0, s)
		}
	}
	all0, err := PrefixSpan(part0, Options{MinSupport: max(int(0.2*float64(len(part0))+0.5), 1), MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Classifier{MaxPatterns: len(all0)}).Fit(context.Background(), db, y, 2); !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("class 0 fills MaxPatterns=%d: err = %v, want ErrPatternBudget", len(all0), err)
	}
}

func ExampleClassifier() {
	db, y := seqDataset(160, 7)
	clf := &Classifier{MinSupport: 0.4, MaxLen: 3}
	if err := clf.Fit(context.Background(), db[:120], y[:120], 2); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("mined:", clf.MinedCount, "selected:", clf.FeatureCount)
	for _, p := range clf.Patterns() {
		fmt.Println(p)
	}
	pred, err := clf.PredictAll(db[120:])
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("holdout:", pred)
	fmt.Println("labels: ", y[120:])
	// Output:
	// mined: 41 selected: 14
	// [5 6]:60
	// [6 5]:60
	// [4 6 5]:40
	// [2 5 6]:37
	// [2 6 5]:37
	// [0 5]:36
	// [0 5 6]:36
	// [3 6 5]:36
	// [4 5 6]:36
	// [0 6 5]:35
	// [3 5]:34
	// [1 5 6]:34
	// [3 5 6]:34
	// [1 6 5]:33
	// holdout: [0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1]
	// labels:  [0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1]
}

// TestClassifierDeterminism pins the selected subsequences, the mined
// pool size and the predictions at GOMAXPROCS 1, 2 and 8: the class
// partitions, MMRFS and the SVM all fan out at GOMAXPROCS workers.
func TestClassifierDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	db, y := seqDataset(160, 7)
	var want string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		clf := &Classifier{MinSupport: 0.4, MaxLen: 3}
		if err := clf.Fit(context.Background(), db[:120], y[:120], 2); err != nil {
			t.Fatal(err)
		}
		pred, err := clf.PredictAll(db[120:])
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(clf.MinedCount, clf.Patterns(), pred)
		if procs == 1 {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS=%d: fit %s, want %s", procs, got, want)
		}
	}
}

func TestClassifierPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db, y := seqDataset(40, 1)
	if err := (&Classifier{}).Fit(ctx, db, y, 2); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

// TestPrefixSpanCancelMidRecursion cancels an enumeration that would
// run for seconds before its budget: the recursion must poll the guard
// and stop with the patterns found so far. A cancel that lands before
// the entry check proves nothing, so it is retried later.
func TestPrefixSpanCancelMidRecursion(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	db := make([]Sequence, 20)
	for i := range db {
		db[i] = make(Sequence, 40)
		for j := range db[i] {
			db[i][j] = int32(r.Intn(3))
		}
	}
	for _, delay := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		stop := time.AfterFunc(delay, cancel)
		ps, err := PrefixSpan(db, Options{MinSupport: 1, MaxPatterns: 300_000, Guard: guard.New(ctx, guard.Limits{})})
		stop.Stop()
		cancel()
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("err = %v after %d patterns, want guard.ErrCanceled", err, len(ps))
		}
		if len(ps) > 0 {
			return
		}
	}
	t.Fatal("every cancel landed before the first pattern")
}
