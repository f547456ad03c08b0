// Package solver is the numerical-optimization substrate of the EOTORA
// reproduction. The paper solves its continuous subproblem P2-B with the
// CVX convex-programming toolbox and its integer subproblem P2-A's optimal
// baseline with the Gurobi branch-and-bound MIP solver; neither is
// available to a stdlib-only Go library, so this package provides
// guaranteed 1-D convex minimization (P2-B is separable into per-server
// 1-D problems) and a best-first branch-and-bound engine with admissible
// lower bounds (the optimal baseline of Figures 4 and 5).
package solver

import (
	"errors"
	"math"
)

// invPhi is 1/φ, the golden-section step ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// ErrBadInterval is returned when a minimization interval is empty or
// inverted.
var ErrBadInterval = errors.New("solver: invalid interval")

// Minimize1D minimizes a unimodal (in particular, convex) function on
// [lo, hi] by golden-section search, stopping when the bracket is below
// tol or after maxIter shrink steps. It returns the minimizer and the
// function value there. A non-positive tol defaults to 1e-9·(hi−lo).
func Minimize1D(f func(float64) float64, lo, hi, tol float64) (x, fx float64, err error) {
	x, fx, _, err = Minimize1DSteps(f, lo, hi, tol)
	return x, fx, err
}

// Minimize1DSteps is Minimize1D, additionally reporting the number of
// bracket-shrink steps performed — the per-solve work metric the
// observability layer records for P2-B (each step costs one function
// evaluation).
func Minimize1DSteps(f func(float64) float64, lo, hi, tol float64) (x, fx float64, steps int, err error) {
	if hi < lo || math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, 0, 0, ErrBadInterval
	}
	if hi == lo {
		return lo, f(lo), 0, nil
	}
	if tol <= 0 {
		tol = 1e-9 * (hi - lo)
	}
	const maxIter = 200
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for ; steps < maxIter && b-a > tol; steps++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = (a + b) / 2
	fx = f(x)
	// The endpoints can win when the minimizer is on the boundary; check
	// them explicitly so boundary optima are exact.
	if flo := f(lo); flo < fx {
		x, fx = lo, flo
	}
	if fhi := f(hi); fhi < fx {
		x, fx = hi, fhi
	}
	return x, fx, steps, nil
}

// CoordinateDescent minimizes f(x) over a box by cyclically applying
// Minimize1D to each coordinate until the objective improvement over a
// full sweep drops below tol or maxSweeps is reached. For separable
// convex objectives one sweep is exact; for coupled convex objectives it
// converges to the optimum. It is the joint-P2-B solver used by the
// ablation bench.
func CoordinateDescent(f func([]float64) float64, lo, hi []float64, maxSweeps int, tol float64) ([]float64, float64, error) {
	n := len(lo)
	if len(hi) != n {
		return nil, 0, errors.New("solver: box bound length mismatch")
	}
	if n == 0 {
		return nil, f(nil), nil
	}
	for i := range lo {
		if hi[i] < lo[i] {
			return nil, 0, ErrBadInterval
		}
	}
	if maxSweeps <= 0 {
		maxSweeps = 32
	}
	if tol <= 0 {
		tol = 1e-10
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = (lo[i] + hi[i]) / 2
	}
	cur := f(x)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		prev := cur
		for i := 0; i < n; i++ {
			xi := x[i]
			coord := func(v float64) float64 {
				x[i] = v
				defer func() { x[i] = xi }()
				return f(x)
			}
			best, _, err := Minimize1D(coord, lo[i], hi[i], 0)
			if err != nil {
				return nil, 0, err
			}
			x[i] = best
		}
		cur = f(x)
		if prev-cur <= tol*(math.Abs(prev)+1) {
			break
		}
	}
	return x, cur, nil
}
