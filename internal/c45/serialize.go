package c45

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// treeSnapshot flattens the tree into parallel arrays for encoding;
// node 0 is the root, child index -1 means "leaf".
type treeSnapshot struct {
	NumClasses int
	Feature    []int32
	Class      []int
	Present    []int32
	Absent     []int32
}

// MarshalBinary encodes the trained tree (encoding.BinaryMarshaler).
// Only the structure needed for prediction is kept; training histograms
// are dropped.
func (m *Model) MarshalBinary() ([]byte, error) {
	snap := treeSnapshot{NumClasses: m.numClasses}
	var flatten func(nd *node) int32
	flatten = func(nd *node) int32 {
		idx := int32(len(snap.Feature))
		snap.Feature = append(snap.Feature, nd.feature)
		snap.Class = append(snap.Class, nd.class)
		snap.Present = append(snap.Present, -1)
		snap.Absent = append(snap.Absent, -1)
		if nd.feature >= 0 {
			snap.Present[idx] = flatten(nd.present)
			snap.Absent[idx] = flatten(nd.absent)
		}
		return idx
	}
	if m.root != nil {
		flatten(m.root)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("c45: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a tree encoded by MarshalBinary.
func (m *Model) UnmarshalBinary(data []byte) error {
	var snap treeSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("c45: unmarshal: %w", err)
	}
	n := len(snap.Feature)
	if n == 0 || snap.NumClasses < 1 {
		return fmt.Errorf("c45: unmarshal: empty snapshot")
	}
	nodes := make([]node, n)
	for i := 0; i < n; i++ {
		nodes[i].feature = snap.Feature[i]
		nodes[i].class = snap.Class[i]
		if nodes[i].feature >= 0 {
			pi, ai := snap.Present[i], snap.Absent[i]
			if pi < 0 || int(pi) >= n || ai < 0 || int(ai) >= n {
				return fmt.Errorf("c45: unmarshal: child index out of range")
			}
			nodes[i].present = &nodes[pi]
			nodes[i].absent = &nodes[ai]
		}
	}
	m.root = &nodes[0]
	m.numClasses = snap.NumClasses
	return nil
}
