// Package svm implements a support-vector-machine classifier trained by
// sequential minimal optimization, standing in for LIBSVM in the
// paper's experiments. It solves the standard C-SVC dual with
// maximal-violating-pair working-set selection (Keerthi et al.), offers
// linear and RBF kernels over sparse binary feature vectors, and
// handles multi-class problems with one-vs-one voting, matching
// LIBSVM's scheme.
package svm

import (
	"fmt"
	"math"
)

// KernelType enumerates the supported kernels.
type KernelType int

const (
	// Linear is K(x,y) = <x,y>.
	Linear KernelType = iota
	// RBF is K(x,y) = exp(-γ ||x−y||²), the Item_RBF baseline kernel.
	RBF
)

// valid reports whether k is a kernel this package evaluates.
func (k KernelType) valid() bool { return k == Linear || k == RBF }

func (k KernelType) String() string {
	switch k {
	case Linear:
		return "linear"
	case RBF:
		return "rbf"
	default:
		return fmt.Sprintf("KernelType(%d)", int(k))
	}
}

// Kernel is a kernel specification. The zero value is a linear kernel.
type Kernel struct {
	Type  KernelType
	Gamma float64 // RBF scale; <= 0 means 1/numFeatures at train time
}

// dot computes the inner product of two sparse binary vectors given as
// sorted index slices: the size of their intersection.
func dot(a, b []int32) float64 {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(n)
}

// Eval evaluates the kernel on two sparse binary vectors. gamma must
// already be resolved (positive).
func (k Kernel) eval(a, b []int32, gamma float64) float64 {
	switch k.Type {
	case RBF:
		d := dot(a, b)
		sq := float64(len(a)) + float64(len(b)) - 2*d
		return math.Exp(-gamma * sq)
	default:
		return dot(a, b)
	}
}

// resolveGamma returns the effective γ: the configured value if
// positive, else 1/numFeatures (LIBSVM's default).
func (k Kernel) resolveGamma(numFeatures int) float64 {
	if k.Gamma > 0 {
		return k.Gamma
	}
	if numFeatures <= 0 {
		return 1
	}
	return 1 / float64(numFeatures)
}
