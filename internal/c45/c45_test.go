package c45

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleFeatureSplit(t *testing.T) {
	// Class determined by presence of feature 0.
	var x [][]int32
	var y []int
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			x = append(x, []int32{0})
			y = append(y, 1)
		} else {
			x = append(x, []int32{1})
			y = append(y, 0)
		}
	}
	m, err := Train(x, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]int32{0}); got != 1 {
		t.Fatalf("Predict({0}) = %d, want 1", got)
	}
	if got := m.Predict([]int32{1}); got != 0 {
		t.Fatalf("Predict({1}) = %d, want 0", got)
	}
}

func TestXORNeedsCombinedFeature(t *testing.T) {
	// Greedy gain-based induction cannot split on XOR: both single
	// features have exactly zero gain, so the tree degenerates to a
	// leaf — the paper's Section 3.1.1 motivation for combined
	// features.
	var x [][]int32
	var y []int
	for rep := 0; rep < 5; rep++ {
		x = append(x, []int32{}, []int32{0}, []int32{1}, []int32{0, 1})
		y = append(y, 0, 1, 1, 0)
	}
	m, err := Train(x, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 {
		t.Fatalf("XOR tree size = %d, want 1 (no zero-gain splits)", m.Size())
	}

	// Adding the combined feature x∧y (item 2) makes XOR learnable.
	var x2 [][]int32
	for _, row := range x {
		if len(row) == 2 {
			x2 = append(x2, []int32{0, 1, 2})
		} else {
			x2 = append(x2, row)
		}
	}
	m2, err := Train(x2, y, 2, Config{Confidence: -1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		row  []int32
		want int
	}{{nil, 0}, {[]int32{0}, 1}, {[]int32{1}, 1}, {[]int32{0, 1, 2}, 0}}
	for _, c := range cases {
		if got := m2.Predict(c.row); got != c.want {
			t.Fatalf("with pattern feature: Predict(%v) = %d, want %d", c.row, got, c.want)
		}
	}
}

func TestPurenodeIsLeaf(t *testing.T) {
	x := [][]int32{{0}, {1}, {0, 1}, {}}
	y := []int{1, 1, 1, 1}
	m, err := Train(x, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 {
		t.Fatalf("pure dataset tree size = %d, want 1", m.Size())
	}
}

func TestMinLeafRespected(t *testing.T) {
	// With MinLeaf = 5 a 6-row dataset cannot split (would need >= 5 per
	// side).
	x := [][]int32{{0}, {0}, {0}, {1}, {1}, {1}}
	y := []int{0, 0, 0, 1, 1, 1}
	m, err := Train(x, y, 2, Config{MinLeaf: 5, Confidence: -1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 {
		t.Fatalf("tree size = %d, want 1 leaf", m.Size())
	}
}

func TestPruningShrinksNoisyTree(t *testing.T) {
	// Strong signal on feature 0, plus many random noise features.
	r := rand.New(rand.NewSource(11))
	var x [][]int32
	var y []int
	for i := 0; i < 300; i++ {
		c := r.Intn(2)
		row := []int32{}
		if c == 1 {
			row = append(row, 0)
		}
		for f := int32(1); f < 20; f++ {
			if r.Intn(2) == 0 {
				row = append(row, f)
			}
		}
		label := c
		if r.Intn(10) == 0 {
			label = 1 - c
		}
		x = append(x, row)
		y = append(y, label)
	}
	unpruned, err := Train(x, y, 2, Config{Confidence: -1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Train(x, y, 2, Config{Confidence: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Size() >= unpruned.Size() {
		t.Fatalf("pruned size %d >= unpruned %d", pruned.Size(), unpruned.Size())
	}
	// The pruned tree must still capture the primary signal.
	correct := 0
	for i := range x {
		if pruned.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(x)) < 0.85 {
		t.Fatalf("pruned accuracy %d/%d too low", correct, len(x))
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, 2, Config{}); err == nil {
		t.Fatal("empty set should error")
	}
	if _, err := Train([][]int32{{0}}, []int{0, 1}, 2, Config{}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Train([][]int32{{0}}, []int{3}, 2, Config{}); err == nil {
		t.Fatal("bad label should error")
	}
	if _, err := Train([][]int32{{0}}, []int{0}, 0, Config{}); err == nil {
		t.Fatal("numClasses=0 should error")
	}
}

func TestMulticlass(t *testing.T) {
	var x [][]int32
	var y []int
	for i := 0; i < 30; i++ {
		c := i % 3
		x = append(x, []int32{int32(c)})
		y = append(y, c)
	}
	m, err := Train(x, y, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got := m.Predict(x[i]); got != y[i] {
			t.Fatalf("row %d = %d, want %d", i, got, y[i])
		}
	}
}

func TestZValue(t *testing.T) {
	// z(0.25) ≈ 0.6745 (C4.5's default CF).
	if got := zValue(0.25); math.Abs(got-0.6745) > 0.01 {
		t.Fatalf("zValue(0.25) = %v, want ~0.6745", got)
	}
	if got := zValue(0.5); got != 0 {
		t.Fatalf("zValue(0.5) = %v, want 0", got)
	}
	// z(0.05) ≈ 1.6449.
	if got := zValue(0.05); math.Abs(got-1.6449) > 0.01 {
		t.Fatalf("zValue(0.05) = %v, want ~1.6449", got)
	}
}

func TestPessimisticErrors(t *testing.T) {
	// Zero observed errors still produce a positive pessimistic
	// estimate (the "optimism penalty").
	if got := pessimisticErrors(0, 10, 0.25); got <= 0 {
		t.Fatalf("pessimisticErrors(0,10) = %v, want > 0", got)
	}
	// More observed errors → larger estimate.
	if pessimisticErrors(3, 10, 0.25) <= pessimisticErrors(1, 10, 0.25) {
		t.Fatal("pessimistic errors not monotone in observed errors")
	}
	if got := pessimisticErrors(0, 0, 0.25); got != 0 {
		t.Fatalf("n=0 → %v, want 0", got)
	}
}

func TestHasFeature(t *testing.T) {
	row := []int32{1, 5, 9}
	for _, c := range []struct {
		f    int32
		want bool
	}{{1, true}, {5, true}, {9, true}, {0, false}, {4, false}, {10, false}} {
		if got := hasFeature(row, c.f); got != c.want {
			t.Errorf("hasFeature(%d) = %v", c.f, got)
		}
	}
}

func TestQuickTrainingAccuracyBeatsMajority(t *testing.T) {
	// Property: on data with a planted signal, the tree's training
	// accuracy is at least the majority-class baseline.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 40 + r.Intn(200)
		var x [][]int32
		var y []int
		classCount := [2]int{}
		for i := 0; i < n; i++ {
			c := r.Intn(2)
			row := []int32{}
			if c == 1 && r.Intn(4) != 0 {
				row = append(row, 0)
			}
			if r.Intn(2) == 0 {
				row = append(row, 1)
			}
			x = append(x, row)
			y = append(y, c)
			classCount[c]++
		}
		m, err := Train(x, y, 2, Config{})
		if err != nil {
			return false
		}
		correct := 0
		for i := range x {
			if m.Predict(x[i]) == y[i] {
				correct++
			}
		}
		maj := classCount[0]
		if classCount[1] > maj {
			maj = classCount[1]
		}
		return correct >= maj
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
