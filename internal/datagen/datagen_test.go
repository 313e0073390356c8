package datagen

import (
	"testing"

	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/measures"
	"dfpc/internal/mining"
)

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := Spec{Name: "g", Instances: 10, Classes: 2, Cat: []int{2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Name: "b1", Instances: 0, Classes: 2, Cat: []int{2}},
		{Name: "b2", Instances: 10, Classes: 1, Cat: []int{2}},
		{Name: "b3", Instances: 10, Classes: 2},
		{Name: "b4", Instances: 10, Classes: 2, Cat: []int{1}},
		{Name: "b5", Instances: 10, Classes: 2, Cat: []int{2}, Priors: []float64{1}},
		{Name: "b6", Instances: 10, Classes: 2, Cat: []int{2}, Priors: []float64{0, 0}},
		{Name: "b7", Instances: 10, Classes: 2, Cat: []int{2}, MissingRate: 1},
		{Name: "b8", Instances: 10, Classes: 2, Cat: []int{2}, Template: 2},
		{Name: "b9", Instances: 10, Classes: 2, Cat: []int{2},
			Patterns: []Planted{{Class: 5, Attrs: []int{0}, Values: []int{0}}}},
		{Name: "b10", Instances: 10, Classes: 2, Cat: []int{2},
			Patterns: []Planted{{Class: 0, Attrs: []int{0}, Values: []int{9}}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", s.Name)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	s := Spec{Name: "shape", Instances: 120, Classes: 3, Cat: []int{2, 3}, Numeric: 2, Seed: 4}
	d, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 120 || d.NumAttrs() != 4 || d.NumClasses() != 3 {
		t.Fatalf("shape = (%d,%d,%d)", d.NumRows(), d.NumAttrs(), d.NumClasses())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := d.ClassCounts()
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("class %d has no instances", c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := Spec{Name: "det", Instances: 50, Classes: 2, Cat: []int{3, 3}, Seed: 9}
	s.AutoPatterns(2, 2, 2)
	a, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Rows[i] {
			av, bv := a.Rows[i][j], b.Rows[i][j]
			if dataset.IsMissing(av) != dataset.IsMissing(bv) {
				t.Fatal("missing cells differ")
			}
			if !dataset.IsMissing(av) && av != bv {
				t.Fatal("rows differ across identical seeds")
			}
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	s1 := Spec{Name: "s", Instances: 50, Classes: 2, Cat: []int{3, 3}, Seed: 1}
	s2 := s1
	s2.Seed = 2
	a, _ := Generate(s1)
	b, _ := Generate(s2)
	same := true
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestPriorsRespected(t *testing.T) {
	s := Spec{Name: "p", Instances: 2000, Classes: 2, Cat: []int{2},
		Priors: []float64{3, 1}, Seed: 5}
	d, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	counts := d.ClassCounts()
	frac := float64(counts[0]) / float64(d.NumRows())
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("class-0 fraction = %v, want ~0.75", frac)
	}
}

func TestMissingRate(t *testing.T) {
	s := Spec{Name: "m", Instances: 500, Classes: 2, Cat: []int{2, 2, 2, 2}, MissingRate: 0.2, Seed: 6}
	d, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	missing, total := 0, 0
	for _, row := range d.Rows {
		for _, v := range row {
			total++
			if dataset.IsMissing(v) {
				missing++
			}
		}
	}
	rate := float64(missing) / float64(total)
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("missing rate = %v, want ~0.2", rate)
	}
}

func TestPlantedPatternIsDiscriminative(t *testing.T) {
	// A strongly planted conjunction must carry a large information
	// gain, higher than chance-level single features.
	s := Spec{Name: "sig", Instances: 600, Classes: 2,
		Cat: []int{4, 4, 4, 4, 4, 4}, Seed: 7,
		Patterns: []Planted{{Class: 1, Attrs: []int{0, 1}, Values: []int{2, 3}, Prob: 0.9}},
	}
	d, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dataset.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	// Item IDs: attr0=2 → 2, attr1=3 → 4+3=7.
	cover := b.Cover([]int32{2, 7})
	ig := measures.InfoGain(cover, b.ClassMasks)
	if ig < 0.3 {
		t.Fatalf("planted pattern IG = %v, want substantial", ig)
	}
	// The pattern must beat each of its constituent single items.
	for _, item := range []int32{2, 7} {
		if single := measures.InfoGain(b.Columns[item], b.ClassMasks); single >= ig {
			t.Fatalf("single item %d IG %v >= pattern IG %v", item, single, ig)
		}
	}
}

func TestDominanceModeIsDense(t *testing.T) {
	// Dominance mode must produce many more closed patterns at a fixed
	// relative support than independent noise.
	dense := Spec{Name: "dense", Instances: 300, Classes: 2, Cat: make([]int, 12), Dominance: 0.9, Seed: 8}
	for i := range dense.Cat {
		dense.Cat[i] = 2
	}
	sparse := dense
	sparse.Name = "sparse"
	sparse.Dominance = 0

	count := func(s Spec) int {
		d, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dataset.Encode(d)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := mining.MinePerClass(b, mining.PerClassOptions{MinSupport: 0.5, Closed: true})
		if err != nil {
			t.Fatal(err)
		}
		return len(ps)
	}
	nd, ns := count(dense), count(sparse)
	if nd <= 2*ns {
		t.Fatalf("dense closed patterns %d not >> sparse %d", nd, ns)
	}
}

func TestByNameAllShapes(t *testing.T) {
	for _, name := range Names() {
		if name == "letter" || name == "waveform" || name == "chess" {
			continue // large; covered by TestDenseShapes
		}
		d, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sh := shapes[name]
		if d.NumRows() != sh.instances || d.NumClasses() != sh.classes {
			t.Fatalf("%s: shape (%d,%d), want (%d,%d)", name, d.NumRows(), d.NumClasses(), sh.instances, sh.classes)
		}
		if d.NumAttrs() != sh.catAttrs+sh.numAttrs {
			t.Fatalf("%s: %d attrs, want %d", name, d.NumAttrs(), sh.catAttrs+sh.numAttrs)
		}
	}
}

func TestDenseShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"chess", "waveform", "letter"} {
		d, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sh := shapes[name]
		if d.NumRows() != sh.instances || d.NumClasses() != sh.classes {
			t.Fatalf("%s: wrong shape", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestTable1NamesAllExist(t *testing.T) {
	if len(Table1Names()) != 19 {
		t.Fatalf("Table1Names = %d entries, want 19", len(Table1Names()))
	}
	for _, n := range Table1Names() {
		if _, ok := shapes[n]; !ok {
			t.Fatalf("Table 1 name %q not in shapes", n)
		}
	}
}

func TestNumericDatasetsDiscretizable(t *testing.T) {
	d, err := ByName("iris", 3)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := discretize.FitApply(d, discretize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !dd.AllCategorical() {
		t.Fatal("iris not fully categorical after discretization")
	}
	if _, err := dataset.Encode(dd); err != nil {
		t.Fatal(err)
	}
}
