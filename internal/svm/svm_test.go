package svm

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// approx compares floats that are exact in the tests' arithmetic; the
// epsilon keeps the comparisons robust if the implementation reorders
// its floating-point operations.
func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

// sep2D builds a linearly separable binary problem over two indicator
// features: class 0 rows contain feature 0, class 1 rows feature 1.
func sep2D(n int) (x [][]int32, y []int) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x = append(x, []int32{0})
			y = append(y, 0)
		} else {
			x = append(x, []int32{1})
			y = append(y, 1)
		}
	}
	return
}

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []int32
		want float64
	}{
		{[]int32{0, 2, 5}, []int32{2, 5, 9}, 2},
		{[]int32{}, []int32{1}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3},
		{[]int32{0}, []int32{1}, 0},
	}
	for _, c := range cases {
		if got := dot(c.a, c.b); !approx(got, c.want) {
			t.Errorf("dot(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestKernelEval(t *testing.T) {
	a, b := []int32{0, 1}, []int32{1, 2}
	lin := Kernel{Type: Linear}
	if got := lin.eval(a, b, 1); !approx(got, 1) {
		t.Fatalf("linear = %v, want 1", got)
	}
	rbf := Kernel{Type: RBF}
	// ||a-b||² = 2+2−2·1 = 2 → exp(−γ·2).
	if got := rbf.eval(a, b, 0.5); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("rbf = %v, want e^-1", got)
	}
	// RBF of identical vectors is 1.
	if got := rbf.eval(a, a, 0.7); math.Abs(got-1) > 1e-12 {
		t.Fatalf("rbf self = %v, want 1", got)
	}
}

func TestResolveGamma(t *testing.T) {
	k := Kernel{Type: RBF}
	if got := k.resolveGamma(4); !approx(got, 0.25) {
		t.Fatalf("gamma = %v, want 0.25", got)
	}
	k.Gamma = 2
	if got := k.resolveGamma(4); !approx(got, 2) {
		t.Fatalf("gamma = %v, want 2", got)
	}
	k.Gamma = 0
	if got := k.resolveGamma(0); !approx(got, 1) {
		t.Fatalf("gamma fallback = %v, want 1", got)
	}
}

func TestLinearSeparable(t *testing.T) {
	x, y := sep2D(40)
	m, err := Train(x, y, 2, Config{C: 1, NumFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		if got := m.Predict(row); got != y[i] {
			t.Fatalf("row %d predicted %d, want %d", i, got, y[i])
		}
	}
}

func TestXORNeedsNonlinearKernel(t *testing.T) {
	// XOR over indicator features a, b: class 1 iff exactly one of
	// items {0, 1} present. Encoded rows: {}, {0}, {1}, {0,1}.
	x := [][]int32{{}, {0}, {1}, {0, 1}, {}, {0}, {1}, {0, 1}}
	y := []int{0, 1, 1, 0, 0, 1, 1, 0}

	rbf, err := Train(x, y, 2, Config{C: 100, Kernel: Kernel{Type: RBF, Gamma: 1}, NumFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range x {
		if rbf.Predict(row) == y[i] {
			correct++
		}
	}
	if correct != len(x) {
		t.Fatalf("RBF solved %d/%d of XOR, want all", correct, len(x))
	}
}

func TestXORLinearWithProductFeature(t *testing.T) {
	// The paper's motivating example (Section 3.1.1): XOR becomes
	// linearly separable once the combined feature x∧y (item 2) is
	// added.
	x := [][]int32{{}, {0}, {1}, {0, 1, 2}, {}, {0}, {1}, {0, 1, 2}}
	y := []int{0, 1, 1, 0, 0, 1, 1, 0}
	m, err := Train(x, y, 2, Config{C: 100, NumFeatures: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		if got := m.Predict(row); got != y[i] {
			t.Fatalf("row %d predicted %d, want %d", i, got, y[i])
		}
	}
}

func TestMulticlassOneVsOne(t *testing.T) {
	// Three classes, each keyed by its own indicator item.
	var x [][]int32
	var y []int
	for i := 0; i < 30; i++ {
		c := i % 3
		x = append(x, []int32{int32(c)})
		y = append(y, c)
	}
	m, err := Train(x, y, 3, Config{C: 1, NumFeatures: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(m.pairs))
	}
	for i, row := range x {
		if got := m.Predict(row); got != y[i] {
			t.Fatalf("row %d predicted %d, want %d", i, got, y[i])
		}
	}
}

func TestSingleClassDegenerate(t *testing.T) {
	x := [][]int32{{0}, {1}}
	y := []int{1, 1}
	m, err := Train(x, y, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]int32{2}); got != 1 {
		t.Fatalf("degenerate predict = %d, want 1", got)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, 2, Config{}); err == nil {
		t.Fatal("empty training set should error")
	}
	if _, err := Train([][]int32{{0}}, []int{0, 1}, 2, Config{}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Train([][]int32{{0}}, []int{5}, 2, Config{}); err == nil {
		t.Fatal("out-of-range label should error")
	}
	if _, err := Train([][]int32{{0}}, []int{0}, 0, Config{}); err == nil {
		t.Fatal("numClasses=0 should error")
	}
	if _, err := Train([][]int32{{0}}, []int{0}, 1, Config{Kernel: Kernel{Type: 2}}); err == nil {
		t.Fatal("unknown kernel type should error")
	}
}

// TestUnmarshalRejectsUnknownKernel pins that a snapshot whose pair
// carries a kernel type this package does not evaluate (2 was the
// removed polynomial kernel) fails to load instead of scoring as
// linear.
func TestUnmarshalRejectsUnknownKernel(t *testing.T) {
	x := [][]int32{{0}, {0}, {1}, {1}}
	y := []int{0, 0, 1, 1}
	m, err := Train(x, y, 2, Config{NumFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var snap modelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.Pairs[0].Kernel.Type = 2
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	var got Model
	if err := got.UnmarshalBinary(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "kernel type 2") {
		t.Fatalf("UnmarshalBinary with kernel type 2: err = %v", err)
	}
	if got.pairs != nil || got.numClasses != 0 {
		t.Fatal("failed UnmarshalBinary left state behind")
	}
}

func TestNoisyDataRespectsC(t *testing.T) {
	// Mostly separable data with a few label flips; a soft margin must
	// still classify the clean majority correctly.
	r := rand.New(rand.NewSource(7))
	var x [][]int32
	var y []int
	for i := 0; i < 200; i++ {
		c := r.Intn(2)
		row := []int32{int32(c)}
		label := c
		if r.Intn(20) == 0 {
			label = 1 - c
		}
		x = append(x, row)
		y = append(y, label)
	}
	m, err := Train(x, y, 2, Config{C: 1, NumFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range x {
		if m.Predict(row) == y[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(x)) < 0.9 {
		t.Fatalf("noisy accuracy = %d/%d, want >= 90%%", correct, len(x))
	}
}

func TestBinaryKKTHolds(t *testing.T) {
	// After training, all α must lie in [0, C] and Σ α_i y_i ≈ 0
	// (checked through the stored signed coefficients).
	x, y := sep2D(20)
	m, err := Train(x, y, 2, Config{C: 2, NumFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	bm := m.pairs[0]
	sum := 0.0
	for _, c := range bm.svCoef {
		sum += c
		if math.Abs(c) > 2+1e-9 {
			t.Fatalf("|coef| = %v exceeds C", math.Abs(c))
		}
	}
	if math.Abs(sum) > 1e-6 {
		t.Fatalf("Σ α_i y_i = %v, want 0", sum)
	}
}

func TestDecisionMarginSeparable(t *testing.T) {
	// On a separable problem with adequate C, functional margins should
	// reach ≈ 1 on support vectors.
	x, y := sep2D(10)
	m, _ := Train(x, y, 2, Config{C: 10, NumFeatures: 2})
	bm := m.pairs[0]
	for i, row := range x {
		d := bm.decision(row)
		want := 1.0
		if y[i] == 1 {
			want = -1.0
		}
		if d*want < 1-1e-2 {
			t.Fatalf("row %d margin %v·%v < 1", i, d, want)
		}
	}
}

func TestPredictAll(t *testing.T) {
	x, y := sep2D(10)
	m, _ := Train(x, y, 2, Config{NumFeatures: 2})
	got := m.PredictAll(x)
	for i := range got {
		if got[i] != y[i] {
			t.Fatalf("PredictAll[%d] = %d, want %d", i, got[i], y[i])
		}
	}
}

func TestNumSupportVectors(t *testing.T) {
	x, y := sep2D(10)
	m, _ := Train(x, y, 2, Config{NumFeatures: 2})
	if m.SupportVectors() == 0 {
		t.Fatal("no support vectors on a non-trivial problem")
	}
}

func TestLargeGramPathMatchesUncached(t *testing.T) {
	// Force the on-the-fly kernel path by a tiny cache limit is not
	// possible without exporting it; instead verify determinism of the
	// cached path across runs.
	x, y := sep2D(50)
	m1, _ := Train(x, y, 2, Config{C: 1, NumFeatures: 2})
	m2, _ := Train(x, y, 2, Config{C: 1, NumFeatures: 2})
	if math.Abs(m1.pairs[0].bias-m2.pairs[0].bias) > 1e-12 {
		t.Fatal("training is not deterministic")
	}
}
