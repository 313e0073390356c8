package discretize

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfpc/internal/dataset"
)

// numericDS builds a dataset with one numeric attribute whose values
// separate the two classes perfectly around 10.
func numericDS(n int) *dataset.Dataset {
	d := &dataset.Dataset{
		Name:    "num",
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"lo", "hi"},
	}
	for i := 0; i < n; i++ {
		v := float64(i)
		y := 0
		if v >= 10 {
			y = 1
		}
		d.Rows = append(d.Rows, []float64{v})
		d.Labels = append(d.Labels, y)
	}
	return d
}

func TestApplyProducesCategorical(t *testing.T) {
	d := numericDS(20)
	out, err := FitApply(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Attrs[0].Kind != dataset.Categorical {
		t.Fatal("attribute still numeric after Apply")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Low values map to bin 0, high values to the last bin.
	if out.Rows[0][0] != 0 {
		t.Fatalf("row 0 bin = %v, want 0", out.Rows[0][0])
	}
	last := out.Rows[19][0]
	if int(last) != len(out.Attrs[0].Values)-1 {
		t.Fatalf("row 19 bin = %v, want last bin", last)
	}
}

func TestApplyPreservesMissing(t *testing.T) {
	d := numericDS(20)
	d.Rows[3][0] = dataset.Missing
	out, err := FitApply(d, Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !dataset.IsMissing(out.Rows[3][0]) {
		t.Fatal("missing cell lost")
	}
}

func TestApplyLeavesCategoricalAlone(t *testing.T) {
	d := &dataset.Dataset{
		Name: "mixed",
		Attrs: []dataset.Attribute{
			{Name: "c", Kind: dataset.Categorical, Values: []string{"u", "v"}},
			{Name: "x", Kind: dataset.Numeric},
		},
		Classes: []string{"a", "b"},
		Rows:    [][]float64{{0, 1.0}, {1, 2.0}, {0, 3.0}, {1, 4.0}},
		Labels:  []int{0, 0, 1, 1},
	}
	out, err := FitApply(d, Options{Bins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Attrs[0].Values[1] != "v" || out.Rows[1][0] != 1 {
		t.Fatal("categorical attribute was modified")
	}
}

func TestEqualFrequencyCuts(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	cuts := equalFrequencyCuts(vals, 4)
	if len(cuts) != 3 {
		t.Fatalf("cuts = %v", cuts)
	}
	// Bins should each hold ~25 values.
	counts := make([]int, 4)
	for _, v := range vals {
		counts[binIndex(cuts, v)]++
	}
	for b, c := range counts {
		if c < 20 || c > 30 {
			t.Fatalf("bin %d holds %d values: %v", b, c, counts)
		}
	}
}

func TestEqualFrequencySkewed(t *testing.T) {
	// Heavily repeated value must not produce duplicate/unsorted cuts.
	vals := []float64{1, 1, 1, 1, 1, 1, 1, 1, 2, 3}
	cuts := equalFrequencyCuts(vals, 4)
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly increasing: %v", cuts)
		}
	}
}

func TestBinIndexBoundaries(t *testing.T) {
	cuts := []float64{1.0, 2.0}
	cases := []struct {
		v    float64
		want int
	}{{0.5, 0}, {1.0, 0}, {1.5, 1}, {2.0, 1}, {2.5, 2}}
	for _, c := range cases {
		if got := binIndex(cuts, c.v); got != c.want {
			t.Errorf("binIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBinLabels(t *testing.T) {
	labels := binLabels([]float64{1, 2})
	if len(labels) != 3 {
		t.Fatalf("labels = %v", labels)
	}
	if labels[0] != "(-inf-1]" || labels[2] != "(2-inf)" {
		t.Fatalf("labels = %v", labels)
	}
	if got := binLabels(nil); len(got) != 1 {
		t.Fatalf("no-cut labels = %v", got)
	}
}

func TestSchemaMismatch(t *testing.T) {
	d := numericDS(20)
	disc, err := Fit(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := &dataset.Dataset{
		Name:    "other",
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}, {Name: "y", Kind: dataset.Numeric}},
		Classes: []string{"a"},
		Rows:    [][]float64{{1, 2}},
		Labels:  []int{0},
	}
	if _, err := disc.Apply(other); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestFitOnTrainApplyOnTest(t *testing.T) {
	train := numericDS(20)
	disc, err := Fit(train, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Test data outside the training range must still map to valid bins.
	test := &dataset.Dataset{
		Name:    "num",
		Attrs:   train.Attrs,
		Classes: train.Classes,
		Rows:    [][]float64{{-100}, {1000}},
		Labels:  []int{0, 1},
	}
	out, err := disc.Apply(test)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickApplyAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := &dataset.Dataset{
			Name:    "q",
			Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}, {Name: "y", Kind: dataset.Numeric}},
			Classes: []string{"a", "b", "c"},
		}
		n := 10 + r.Intn(100)
		for i := 0; i < n; i++ {
			d.Rows = append(d.Rows, []float64{r.NormFloat64() * 10, r.Float64()})
			d.Labels = append(d.Labels, r.Intn(3))
		}
		out, err := FitApply(d, Options{Bins: 2 + r.Intn(5)})
		return err == nil && out.Validate() == nil && out.AllCategorical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
