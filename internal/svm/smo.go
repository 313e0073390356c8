package svm

import (
	"fmt"
	"math"

	"dfpc/internal/guard"
)

// smoEps is the KKT violation tolerance at which Train's SMO solves
// stop (LIBSVM's default).
const smoEps = 1e-3

// smoConfig parameterizes one binary SMO solve.
type smoConfig struct {
	c       float64
	eps     float64
	maxIter int
	kernel  Kernel
	gamma   float64
	g       *guard.Guard // nil = unbounded solve
}

// binaryModel is the result of one binary C-SVC solve: the support
// vectors with their signed coefficients α_i·y_i and the bias term.
type binaryModel struct {
	svX    [][]int32
	svCoef []float64
	bias   float64
	kernel Kernel
	gamma  float64
	iters  int
	nBound int // support vectors at the C bound
	// nonConverged marks a solve that exhausted maxIter before the KKT
	// tolerance was met. The model is still usable — SMO monotonically
	// improves the dual — but callers should surface a warning.
	nonConverged bool
}

// decision evaluates f(x) = Σ coef_i K(sv_i, x) + b.
func (m *binaryModel) decision(x []int32) float64 {
	f := m.bias
	for i, sv := range m.svX {
		f += m.svCoef[i] * m.kernel.eval(sv, x, m.gamma)
	}
	return f
}

// gramCacheLimit is the largest problem size for which the full kernel
// matrix is precomputed (float32, so 4·n² bytes — 64 MB at n = 4000).
const gramCacheLimit = 4000

// trainBinary solves the C-SVC dual
//
//	min ½ Σ_ij α_i α_j y_i y_j K_ij − Σ_i α_i
//	s.t. Σ_i α_i y_i = 0, 0 ≤ α_i ≤ C
//
// by SMO with maximal-violating-pair selection. y must be ±1.
func trainBinary(x [][]int32, y []float64, cfg smoConfig) (*binaryModel, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(y) != n {
		return nil, fmt.Errorf("svm: %d labels for %d rows", len(y), n)
	}
	hasPos, hasNeg := false, false
	for _, v := range y {
		switch v {
		case 1:
			hasPos = true
		case -1:
			hasNeg = true
		default:
			return nil, fmt.Errorf("svm: label %v, want ±1", v)
		}
	}
	if !hasPos || !hasNeg {
		return nil, fmt.Errorf("svm: need both classes in training data")
	}

	// Kernel access, optionally through a precomputed Gram matrix.
	var gram []float32
	if n <= gramCacheLimit {
		gram = make([]float32, n*n)
		for i := 0; i < n; i++ {
			// One poll per row bounds the up-to-n²/2 kernel evaluations
			// that precede the first SMO iteration.
			if err := cfg.g.CheckNow(); err != nil {
				return nil, err
			}
			for j := i; j < n; j++ {
				v := float32(cfg.kernel.eval(x[i], x[j], cfg.gamma))
				gram[i*n+j] = v
				gram[j*n+i] = v
			}
		}
	}
	k := func(i, j int) float64 {
		if gram != nil {
			return float64(gram[i*n+j])
		}
		return cfg.kernel.eval(x[i], x[j], cfg.gamma)
	}

	alpha := make([]float64, n)
	// grad_i = ∇f_i = Σ_j α_j y_i y_j K_ij − 1; starts at −1 with α = 0.
	grad := make([]float64, n)
	for i := range grad {
		grad[i] = -1
	}

	inUp := func(i int) bool {
		return (y[i] > 0 && alpha[i] < cfg.c) || (y[i] < 0 && alpha[i] > 0)
	}
	inLow := func(i int) bool {
		return (y[i] > 0 && alpha[i] > 0) || (y[i] < 0 && alpha[i] < cfg.c)
	}

	if err := cfg.g.CheckNow(); err != nil {
		return nil, err
	}
	iters := 0
	converged := false
	for ; iters < cfg.maxIter; iters++ {
		// Each iteration already scans all n rows, so an every-iteration
		// poll is cheap relative to the work it bounds.
		if err := cfg.g.CheckNow(); err != nil {
			return nil, err
		}
		// Maximal violating pair: i maximizes −y_i∇f_i over I_up,
		// j minimizes it over I_low.
		i, j := -1, -1
		gmax, gmin := math.Inf(-1), math.Inf(1)
		for t := 0; t < n; t++ {
			v := -y[t] * grad[t]
			if inUp(t) && v > gmax {
				gmax, i = v, t
			}
			if inLow(t) && v < gmin {
				gmin, j = v, t
			}
		}
		if i < 0 || j < 0 || gmax-gmin < cfg.eps {
			converged = true
			break
		}

		// Two-variable analytic update, clipped to the box (the SMO step).
		s := y[i] * y[j]
		var lo, hi float64
		if s < 0 {
			lo = math.Max(0, alpha[j]-alpha[i])
			hi = math.Min(cfg.c, cfg.c+alpha[j]-alpha[i])
		} else {
			lo = math.Max(0, alpha[i]+alpha[j]-cfg.c)
			hi = math.Min(cfg.c, alpha[i]+alpha[j])
		}
		if hi-lo < 1e-12 {
			// Degenerate box: mark progress impossible for this pair by
			// nudging nothing; the violating-pair loop will pick others,
			// but to avoid livelock treat as converged enough.
			converged = true
			break
		}
		eta := k(i, i) + k(j, j) - 2*k(i, j)
		// Ê_t = y_t ∇f_t (bias-free error).
		ei := y[i] * grad[i]
		ej := y[j] * grad[j]
		var ajNew float64
		if eta > 1e-12 {
			ajNew = alpha[j] + y[j]*(ei-ej)/eta
		} else {
			// Flat direction: move to the bound that lowers the
			// objective (pick by the sign of the linear term).
			if y[j]*(ei-ej) > 0 {
				ajNew = hi
			} else {
				ajNew = lo
			}
		}
		if ajNew < lo {
			ajNew = lo
		} else if ajNew > hi {
			ajNew = hi
		}
		dj := ajNew - alpha[j]
		if math.Abs(dj) < 1e-14 {
			// Numerical corner: the maximal violating pair cannot move.
			// With bound snapping below this should not occur; bail out
			// rather than livelock.
			converged = true
			break
		}
		di := -s * dj
		alpha[i] += di
		alpha[j] += dj

		// Gradient maintenance: ∇f_t += y_t y_i K_ti·di + y_t y_j K_tj·dj.
		for t := 0; t < n; t++ {
			grad[t] += y[t] * (y[i]*k(t, i)*di + y[j]*k(t, j)*dj)
		}

		// Snap alphas that landed numerically at a bound onto it, so the
		// I_up/I_low membership tests stay exact. Without this, an α at
		// C−ε keeps being selected as a violating-pair endpoint that can
		// no longer move, stalling the solver far from optimality.
		const snapTol = 1e-10
		for _, t := range [2]int{i, j} {
			if alpha[t] < snapTol*cfg.c {
				alpha[t] = 0
			} else if alpha[t] > (1-snapTol)*cfg.c {
				alpha[t] = cfg.c
			}
		}
	}

	// Bias: average −Ê over free support vectors; fall back to the
	// midpoint of the feasibility interval.
	sumB, nFree := 0.0, 0
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-12 && alpha[t] < cfg.c-1e-12 {
			sumB += -y[t] * grad[t] // = y_t − f̂_t
			nFree++
		}
	}
	var bias float64
	if nFree > 0 {
		bias = sumB / float64(nFree)
	} else {
		up, low := math.Inf(-1), math.Inf(1)
		for t := 0; t < n; t++ {
			v := -y[t] * grad[t]
			if inUp(t) && v > up {
				up = v
			}
			if inLow(t) && v < low {
				low = v
			}
		}
		bias = (up + low) / 2
	}

	m := &binaryModel{kernel: cfg.kernel, gamma: cfg.gamma, bias: bias, iters: iters, nonConverged: !converged}
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-12 {
			m.svX = append(m.svX, x[t])
			m.svCoef = append(m.svCoef, alpha[t]*y[t])
			if alpha[t] > cfg.c-1e-12 {
				m.nBound++
			}
		}
	}
	return m, nil
}
