package svm

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// modelSnapshot is the gob-encodable form of a trained Model.
type modelSnapshot struct {
	NumClasses  int
	PairClass   [][2]int
	SingleClass int
	Pairs       []binarySnapshot
}

type binarySnapshot struct {
	SVX    [][]int32
	SVCoef []float64
	Bias   float64
	Kernel Kernel
	Gamma  float64
}

// MarshalBinary encodes the trained model (encoding.BinaryMarshaler).
func (m *Model) MarshalBinary() ([]byte, error) {
	snap := modelSnapshot{
		NumClasses:  m.numClasses,
		PairClass:   m.pairClass,
		SingleClass: m.singleClass,
	}
	for _, bm := range m.pairs {
		snap.Pairs = append(snap.Pairs, binarySnapshot{
			SVX:    bm.svX,
			SVCoef: bm.svCoef,
			Bias:   bm.bias,
			Kernel: bm.kernel,
			Gamma:  bm.gamma,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("svm: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a model encoded by MarshalBinary.
func (m *Model) UnmarshalBinary(data []byte) error {
	var snap modelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("svm: unmarshal: %w", err)
	}
	if snap.NumClasses < 1 {
		return fmt.Errorf("svm: unmarshal: bad class count %d", snap.NumClasses)
	}
	var pairs []*binaryModel
	for i, bs := range snap.Pairs {
		if !bs.Kernel.Type.valid() {
			return fmt.Errorf("svm: unmarshal: pair %d: unknown kernel type %d", i, int(bs.Kernel.Type))
		}
		pairs = append(pairs, &binaryModel{
			svX:    bs.SVX,
			svCoef: bs.SVCoef,
			bias:   bs.Bias,
			kernel: bs.Kernel,
			gamma:  bs.Gamma,
		})
	}
	m.numClasses = snap.NumClasses
	m.pairClass = snap.PairClass
	m.singleClass = snap.SingleClass
	m.pairs = pairs
	return nil
}
