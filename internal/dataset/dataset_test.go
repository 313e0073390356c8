package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny builds a small fully categorical dataset used across tests:
// attrs: color {red,green}, size {s,m,l}; classes {yes,no}.
func tiny() *Dataset {
	return &Dataset{
		Name: "tiny",
		Attrs: []Attribute{
			{Name: "color", Kind: Categorical, Values: []string{"red", "green"}},
			{Name: "size", Kind: Categorical, Values: []string{"s", "m", "l"}},
		},
		Classes: []string{"yes", "no"},
		Rows: [][]float64{
			{0, 0}, // red,s
			{0, 1}, // red,m
			{1, 2}, // green,l
			{1, 0}, // green,s
			{0, Missing},
		},
		Labels: []int{0, 0, 1, 1, 0},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadLabel(t *testing.T) {
	d := tiny()
	d.Labels[0] = 5
	if err := d.Validate(); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
}

func TestValidateCatchesBadCategory(t *testing.T) {
	d := tiny()
	d.Rows[0][1] = 7
	if err := d.Validate(); err == nil {
		t.Fatal("expected error for out-of-range category")
	}
	d = tiny()
	d.Rows[0][1] = 0.5
	if err := d.Validate(); err == nil {
		t.Fatal("expected error for non-integer category")
	}
}

func TestValidateCatchesRaggedRows(t *testing.T) {
	d := tiny()
	d.Rows[2] = d.Rows[2][:1]
	if err := d.Validate(); err == nil {
		t.Fatal("expected error for ragged row")
	}
}

func TestClassCounts(t *testing.T) {
	counts := tiny().ClassCounts()
	if counts[0] != 3 || counts[1] != 2 {
		t.Fatalf("ClassCounts = %v, want [3 2]", counts)
	}
}

func TestSubset(t *testing.T) {
	sub := tiny().Subset([]int{2, 0})
	if sub.NumRows() != 2 {
		t.Fatalf("NumRows = %d", sub.NumRows())
	}
	if sub.Labels[0] != 1 || sub.Labels[1] != 0 {
		t.Fatalf("labels = %v", sub.Labels)
	}
	if sub.Rows[0][1] != 2 {
		t.Fatalf("row 0 = %v", sub.Rows[0])
	}
}

func TestNewSpace(t *testing.T) {
	s, err := NewSpace(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumItems() != 5 {
		t.Fatalf("NumItems = %d, want 5", s.NumItems())
	}
	if got := s.ItemID(1, 2); got != 4 {
		t.Fatalf("ItemID(1,2) = %d, want 4", got)
	}
	if got := s.ItemName(0); got != "color=red" {
		t.Fatalf("ItemName(0) = %q", got)
	}
}

func TestNewSpaceRejectsNumeric(t *testing.T) {
	d := tiny()
	d.Attrs[0].Kind = Numeric
	d.Attrs[0].Values = nil
	if _, err := NewSpace(d); err == nil {
		t.Fatal("expected error for numeric attribute")
	}
}

func TestEncode(t *testing.T) {
	b, err := Encode(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 5 || b.NumItems() != 5 || b.NumClasses() != 2 {
		t.Fatalf("shape = (%d,%d,%d)", b.NumRows(), b.NumItems(), b.NumClasses())
	}
	// Row 0 is red,s → items 0 (color=red) and 2 (size=s).
	if len(b.Rows[0]) != 2 || b.Rows[0][0] != 0 || b.Rows[0][1] != 2 {
		t.Fatalf("row 0 = %v", b.Rows[0])
	}
	// Row 4 has a missing size → only the color item.
	if len(b.Rows[4]) != 1 || b.Rows[4][0] != 0 {
		t.Fatalf("row 4 = %v", b.Rows[4])
	}
	// Column for color=red covers rows 0,1,4.
	if got := b.Columns[0].Indices(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 4 {
		t.Fatalf("column 0 = %v", got)
	}
	// Class masks partition the rows.
	if b.ClassMasks[0].Count()+b.ClassMasks[1].Count() != 5 {
		t.Fatal("class masks do not partition rows")
	}
	if b.ClassMasks[0].AndCount(b.ClassMasks[1]) != 0 {
		t.Fatal("class masks overlap")
	}
}

// hasPattern reports whether row contains every item of the pattern,
// one HasItem probe per item: the oracle the Cover property test
// checks against.
func hasPattern(b *Binary, row int, items []int32) bool {
	for _, it := range items {
		if !b.HasItem(row, it) {
			return false
		}
	}
	return true
}

func TestHasItemHasPattern(t *testing.T) {
	b, _ := Encode(tiny())
	if !b.HasItem(0, 0) || b.HasItem(0, 1) || !b.HasItem(0, 2) {
		t.Fatal("HasItem wrong on row 0")
	}
	if !hasPattern(b, 0, []int32{0, 2}) {
		t.Fatal("hasPattern {0,2} should hold on row 0")
	}
	if hasPattern(b, 0, []int32{0, 3}) {
		t.Fatal("hasPattern {0,3} should not hold on row 0")
	}
	if !hasPattern(b, 0, nil) {
		t.Fatal("empty pattern should hold everywhere")
	}
}

func TestCover(t *testing.T) {
	b, _ := Encode(tiny())
	// color=red ∧ size=m → row 1 only.
	cov := b.Cover([]int32{0, 3})
	if got := cov.Indices(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("cover = %v, want [1]", got)
	}
	if got := b.Cover(nil).Count(); got != 5 {
		t.Fatalf("empty cover = %d rows, want 5", got)
	}
}

func TestBinarySubset(t *testing.T) {
	b, _ := Encode(tiny())
	sub := b.Subset([]int{1, 2, 4})
	if sub.NumRows() != 3 {
		t.Fatalf("NumRows = %d", sub.NumRows())
	}
	// color=red now covers local rows 0 (orig 1) and 2 (orig 4).
	if got := sub.Columns[0].Indices(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("subset column 0 = %v", got)
	}
	if sub.Labels[1] != 1 {
		t.Fatalf("subset labels = %v", sub.Labels)
	}
	if sub.ClassMasks[0].Count() != 2 || sub.ClassMasks[1].Count() != 1 {
		t.Fatal("subset class masks wrong")
	}
}

func TestQuickCoverMatchesHasPattern(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r, 40, 4, 3)
		b, err := Encode(d)
		if err != nil {
			return false
		}
		// Random pattern of up to 3 items.
		k := 1 + r.Intn(3)
		items := map[int32]bool{}
		for len(items) < k {
			items[int32(r.Intn(b.NumItems()))] = true
		}
		pat := make([]int32, 0, k)
		for it := range items {
			pat = append(pat, it)
		}
		sortInt32(pat)
		cov := b.Cover(pat)
		for i := 0; i < b.NumRows(); i++ {
			if cov.Get(i) != hasPattern(b, i, pat) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// randomDataset builds a random fully categorical dataset for property
// tests.
func randomDataset(r *rand.Rand, n, attrs, classes int) *Dataset {
	d := &Dataset{Name: "rand", Classes: make([]string, classes)}
	for c := range d.Classes {
		d.Classes[c] = string(rune('A' + c))
	}
	for a := 0; a < attrs; a++ {
		vals := 2 + r.Intn(3)
		attr := Attribute{Name: string(rune('a' + a)), Kind: Categorical}
		for v := 0; v < vals; v++ {
			attr.Values = append(attr.Values, string(rune('0'+v)))
		}
		d.Attrs = append(d.Attrs, attr)
	}
	for i := 0; i < n; i++ {
		row := make([]float64, attrs)
		for a := range row {
			if r.Intn(10) == 0 {
				row[a] = Missing
			} else {
				row[a] = float64(r.Intn(len(d.Attrs[a].Values)))
			}
		}
		d.Rows = append(d.Rows, row)
		d.Labels = append(d.Labels, r.Intn(classes))
	}
	return d
}
