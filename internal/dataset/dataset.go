// Package dataset defines the tabular data model used by the library:
// datasets with categorical and numeric attributes, class labels, the
// (attribute, value) → item mapping into the binary space B^d from the
// paper's Section 2, CSV input/output, and stratified fold splitting.
package dataset

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"dfpc/internal/bitset"
)

// Kind distinguishes attribute types.
type Kind int

const (
	// Categorical attributes take one of a finite set of string values.
	Categorical Kind = iota
	// Numeric attributes take real values and must be discretized
	// before binary encoding.
	Numeric
)

func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one column of a dataset.
type Attribute struct {
	Name string
	Kind Kind
	// Values holds the category names for Categorical attributes, in
	// index order. Empty for Numeric attributes.
	Values []string
}

// Missing is the sentinel cell value for a missing entry.
var Missing = math.NaN()

// IsMissing reports whether a cell value is the missing sentinel.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// parseFiniteFloat parses a numeric cell, rejecting NaN and ±Inf: NaN
// would silently collide with the Missing sentinel and infinities break
// discretization, so parsers must error on them instead of storing them.
func parseFiniteFloat(cell string) (float64, error) {
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite numeric value %q", cell)
	}
	return v, nil
}

// Dataset is a labelled tabular dataset. Each row stores, per attribute,
// either the numeric value (Numeric) or the category index (Categorical,
// as a float64 holding a small integer). Missing cells hold Missing.
type Dataset struct {
	Name    string
	Attrs   []Attribute
	Classes []string
	Rows    [][]float64
	Labels  []int
}

// NumRows returns the number of instances.
func (d *Dataset) NumRows() int { return len(d.Rows) }

// NumAttrs returns the number of attributes.
func (d *Dataset) NumAttrs() int { return len(d.Attrs) }

// NumClasses returns the number of distinct class labels.
func (d *Dataset) NumClasses() int { return len(d.Classes) }

// Validate checks structural invariants: row widths, label ranges, and
// categorical indices within the attribute's value list.
func (d *Dataset) Validate() error {
	if len(d.Rows) != len(d.Labels) {
		return fmt.Errorf("dataset %s: %d rows but %d labels", d.Name, len(d.Rows), len(d.Labels))
	}
	for i, row := range d.Rows {
		if len(row) != len(d.Attrs) {
			return fmt.Errorf("dataset %s: row %d has %d cells, want %d", d.Name, i, len(row), len(d.Attrs))
		}
		for j, v := range row {
			if IsMissing(v) {
				continue
			}
			if d.Attrs[j].Kind == Categorical {
				vi := int(v)
				if float64(vi) != v || vi < 0 || vi >= len(d.Attrs[j].Values) {
					return fmt.Errorf("dataset %s: row %d attr %q: bad category index %v", d.Name, i, d.Attrs[j].Name, v)
				}
			}
		}
	}
	for i, y := range d.Labels {
		if y < 0 || y >= len(d.Classes) {
			return fmt.Errorf("dataset %s: row %d has label %d, want [0,%d)", d.Name, i, y, len(d.Classes))
		}
	}
	return nil
}

// ClassCounts returns the number of instances per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, len(d.Classes))
	for _, y := range d.Labels {
		counts[y]++
	}
	return counts
}

// Subset returns a new Dataset containing the given rows (shared
// attribute/class metadata, copied row references).
func (d *Dataset) Subset(rows []int) *Dataset {
	sub := &Dataset{
		Name:    d.Name,
		Attrs:   d.Attrs,
		Classes: d.Classes,
		Rows:    make([][]float64, len(rows)),
		Labels:  make([]int, len(rows)),
	}
	for i, r := range rows {
		sub.Rows[i] = d.Rows[r]
		sub.Labels[i] = d.Labels[r]
	}
	return sub
}

// AllCategorical reports whether every attribute is categorical, i.e.
// whether the dataset is ready for binary encoding.
func (d *Dataset) AllCategorical() bool {
	for _, a := range d.Attrs {
		if a.Kind != Categorical {
			return false
		}
	}
	return true
}

// Item is a single feature o_i in the paper's item space I: a distinct
// (attribute, value) pair.
type Item struct {
	Attr  int // attribute index in the source dataset
	Value int // category index within the attribute
	Name  string
}

// Space is the item vocabulary I = {o_1, ..., o_d} built from a
// dataset's categorical attributes. Item IDs are dense ints [0, d).
type Space struct {
	Items []Item
	// base[a] is the item ID of (attribute a, value 0); item ID of
	// (a, v) is base[a]+v.
	base []int
}

// NumItems returns d = |I|.
func (s *Space) NumItems() int { return len(s.Items) }

// ItemID returns the item ID for (attr, value).
func (s *Space) ItemID(attr, value int) int { return s.base[attr] + value }

// ItemName returns the human-readable name of an item.
func (s *Space) ItemName(id int) string { return s.Items[id].Name }

// NewSpace builds the item space for a fully categorical dataset.
func NewSpace(d *Dataset) (*Space, error) {
	if !d.AllCategorical() {
		return nil, fmt.Errorf("dataset %s: has numeric attributes; discretize first", d.Name)
	}
	s := &Space{base: make([]int, len(d.Attrs))}
	for a, attr := range d.Attrs {
		s.base[a] = len(s.Items)
		for v, name := range attr.Values {
			s.Items = append(s.Items, Item{Attr: a, Value: v, Name: attr.Name + "=" + name})
		}
	}
	return s, nil
}

// Binary is a dataset encoded in the binary item space B^d: each row is
// the set of items it contains (transaction form), and each item has a
// column bitset over rows (vertical form). Both views are kept because
// row-wise work (featurization, projecting columns onto a class
// partition for the miner) consumes transactions while the miner,
// discriminative measures and MMRFS consume coverage bitsets.
type Binary struct {
	Space      *Space
	Name       string
	Classes    []string
	Rows       [][]int32 // sorted item IDs per instance
	Labels     []int
	Columns    []*bitset.Bitset // per item: rows containing the item
	ClassMasks []*bitset.Bitset // per class: rows of that class
}

// NumRows returns the number of instances.
func (b *Binary) NumRows() int { return len(b.Rows) }

// NumItems returns d = |I|.
func (b *Binary) NumItems() int { return b.Space.NumItems() }

// NumClasses returns the number of classes.
func (b *Binary) NumClasses() int { return len(b.Classes) }

// ClassCounts returns per-class instance counts.
func (b *Binary) ClassCounts() []int {
	counts := make([]int, len(b.Classes))
	for _, y := range b.Labels {
		counts[y]++
	}
	return counts
}

// Encode maps a fully categorical dataset into the binary space. Missing
// cells simply contribute no item for that attribute.
func Encode(d *Dataset) (*Binary, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	space, err := NewSpace(d)
	if err != nil {
		return nil, err
	}
	n := d.NumRows()
	b := &Binary{
		Space:   space,
		Name:    d.Name,
		Classes: d.Classes,
		Rows:    make([][]int32, n),
		Labels:  append([]int(nil), d.Labels...),
		Columns: make([]*bitset.Bitset, space.NumItems()),
	}
	for i := range b.Columns {
		b.Columns[i] = bitset.New(n)
	}
	for i, row := range d.Rows {
		tx := make([]int32, 0, len(row))
		for a, v := range row {
			if IsMissing(v) {
				continue
			}
			id := space.ItemID(a, int(v))
			tx = append(tx, int32(id))
			b.Columns[id].Set(i)
		}
		slices.Sort(tx)
		b.Rows[i] = tx
	}
	b.ClassMasks = make([]*bitset.Bitset, len(d.Classes))
	for c := range b.ClassMasks {
		b.ClassMasks[c] = bitset.New(n)
	}
	for i, y := range b.Labels {
		b.ClassMasks[y].Set(i)
	}
	return b, nil
}

// Subset returns the binary encoding restricted to the given rows.
// Item space and class list are shared; coverage structures are rebuilt.
func (b *Binary) Subset(rows []int) *Binary {
	n := len(rows)
	sub := &Binary{
		Space:   b.Space,
		Name:    b.Name,
		Classes: b.Classes,
		Rows:    make([][]int32, n),
		Labels:  make([]int, n),
		Columns: make([]*bitset.Bitset, b.NumItems()),
	}
	for i := range sub.Columns {
		sub.Columns[i] = bitset.New(n)
	}
	for i, r := range rows {
		sub.Rows[i] = b.Rows[r]
		sub.Labels[i] = b.Labels[r]
		for _, it := range b.Rows[r] {
			sub.Columns[it].Set(i)
		}
	}
	sub.ClassMasks = make([]*bitset.Bitset, len(b.Classes))
	for c := range sub.ClassMasks {
		sub.ClassMasks[c] = bitset.New(n)
	}
	for i, y := range sub.Labels {
		sub.ClassMasks[y].Set(i)
	}
	return sub
}

// HasItem reports whether row i contains the given item, via binary
// search over the sorted transaction.
func (b *Binary) HasItem(row int, item int32) bool {
	tx := b.Rows[row]
	lo, hi := 0, len(tx)
	for lo < hi {
		mid := (lo + hi) / 2
		if tx[mid] < item {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(tx) && tx[lo] == item
}

// Cover returns the coverage bitset of a (sorted) itemset: rows that
// contain every item. A nil or empty pattern covers every row.
func (b *Binary) Cover(items []int32) *bitset.Bitset {
	cov := bitset.New(b.NumRows())
	if len(items) == 0 {
		cov.SetAll()
		return cov
	}
	cov.CopyFrom(b.Columns[items[0]])
	for _, it := range items[1:] {
		cov.And(b.Columns[it])
	}
	return cov
}
