package knn

import (
	"math"
	"testing"
)

func TestIntersection(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
	}{
		{[]int32{0, 2, 5}, []int32{2, 5, 9}, 2},
		{nil, []int32{1}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3},
	}
	for _, c := range cases {
		if got := intersection(c.a, c.b); got != c.want {
			t.Errorf("intersection(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardDistance(t *testing.T) {
	m := &Model{cfg: Config{Distance: Jaccard}}
	if got := m.distance([]int32{0, 1}, []int32{1, 2}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("distance = %v, want 2/3", got)
	}
	if got := m.distance(nil, nil); got != 0 {
		t.Fatalf("empty distance = %v, want 0", got)
	}
	if got := m.distance([]int32{0}, []int32{0}); got != 0 {
		t.Fatalf("identical distance = %v, want 0", got)
	}
}

func TestHammingDistance(t *testing.T) {
	m := &Model{cfg: Config{Distance: Hamming}}
	if got := m.distance([]int32{0, 1}, []int32{1, 2}); got != 2 {
		t.Fatalf("hamming = %v, want 2", got)
	}
}

func TestPredictSeparable(t *testing.T) {
	var x [][]int32
	var y []int
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			x = append(x, []int32{0, 2})
			y = append(y, 0)
		} else {
			x = append(x, []int32{1, 3})
			y = append(y, 1)
		}
	}
	m, err := Train(x, y, 2, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]int32{0, 2}); got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
	if got := m.Predict([]int32{1, 3}); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
	// A partial match still lands on the nearer class.
	if got := m.Predict([]int32{0}); got != 0 {
		t.Fatalf("partial match got %d, want 0", got)
	}
}

func TestKLargerThanTrainingSet(t *testing.T) {
	x := [][]int32{{0}, {0}, {1}}
	y := []int{0, 0, 1}
	m, err := Train(x, y, 2, Config{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Majority of all rows is class 0.
	if got := m.Predict([]int32{1}); got != 0 {
		t.Fatalf("got %d, want 0 (global majority)", got)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, 2, Config{}); err == nil {
		t.Fatal("empty set should error")
	}
	if _, err := Train([][]int32{{0}}, []int{0, 1}, 2, Config{}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Train([][]int32{{0}}, []int{7}, 2, Config{}); err == nil {
		t.Fatal("bad label should error")
	}
	if _, err := Train([][]int32{{0}}, []int{0}, 0, Config{}); err == nil {
		t.Fatal("numClasses=0 should error")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two training rows equidistant from the query: prediction must be
	// stable across calls.
	x := [][]int32{{0}, {1}}
	y := []int{1, 0}
	m, err := Train(x, y, 2, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := m.Predict([]int32{2})
	s := m.NewScorer()
	for i := 0; i < 5; i++ {
		if m.Predict([]int32{2}) != first || s.Predict([]int32{2}) != first {
			t.Fatal("non-deterministic prediction")
		}
	}
}

func TestPredictAll(t *testing.T) {
	x := [][]int32{{0}, {1}, {0}, {1}}
	y := []int{0, 1, 0, 1}
	m, _ := Train(x, y, 2, Config{K: 1})
	s := m.NewScorer()
	for i := range x {
		if p := m.Predict(x[i]); p != y[i] {
			t.Fatalf("Predict(row %d) = %d, want %d", i, p, y[i])
		}
		// The scorer's reused scratch must not carry votes across rows.
		if p := s.Predict(x[i]); p != y[i] {
			t.Fatalf("Scorer.Predict(row %d) = %d, want %d", i, p, y[i])
		}
	}
}
