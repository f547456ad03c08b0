// Package energy models edge-server energy consumption as a function of
// clock frequency (the g_n(·) of the paper). Following Section III-A, no
// specific functional form is presumed — only convexity in the clock
// frequency — and every server may carry a different function.
//
// The paper's simulation fits a quadratic to measured power of an Intel
// i7-3770K core between 1.8 and 3.6 GHz (Figure 3) and then perturbs the
// fitted coefficients per server: a(1+0.01e), b(1+0.1e), c(1+0.1e) with
// e ~ N(0, 1). This package reproduces that pipeline: an embedded
// power/frequency table, least-squares fitting, and the perturbation rule.
package energy

import (
	"errors"
	"fmt"
	"math"

	"eotora/internal/stats"
	"eotora/internal/units"
)

// Model is a per-core energy-consumption function g(·): it maps a per-core
// clock frequency to an instantaneous power draw. Implementations must be
// convex and non-decreasing on the server's feasible frequency range.
type Model interface {
	// Power returns the per-core power draw at per-core frequency f.
	Power(f units.Frequency) units.Power
}

// Quadratic is the paper's fitted model: power = A·ω² + B·ω + C with ω in
// GHz and power in watts. It is convex whenever A ≥ 0.
type Quadratic struct {
	A, B, C float64
}

var _ Model = Quadratic{}

// Power implements Model.
func (q Quadratic) Power(f units.Frequency) units.Power {
	ghz := f.GigaHertz()
	return units.Power(q.A*ghz*ghz + q.B*ghz + q.C)
}

// Perturb returns the paper's per-server variant of the quadratic: the
// coefficients become A(1+0.01e), B(1+0.1e), C(1+0.1e) for a standard
// normal draw e.
func (q Quadratic) Perturb(e float64) Quadratic {
	return Quadratic{
		A: q.A * (1 + 0.01*e),
		B: q.B * (1 + 0.1*e),
		C: q.C * (1 + 0.1*e),
	}
}

// Linear is the linear energy model of [8]: power = Slope·ω + Intercept
// with ω in GHz. Linear functions are trivially convex.
type Linear struct {
	Slope, Intercept float64
}

var _ Model = Linear{}

// Power implements Model.
func (l Linear) Power(f units.Frequency) units.Power {
	return units.Power(l.Slope*f.GigaHertz() + l.Intercept)
}

// Sample is one measured (frequency, power) point.
type Sample struct {
	Freq  units.Frequency
	Power units.Power
}

// I7_3770K reproduces the measured per-core power/frequency scaling of the
// Intel i7-3770K used in the paper's Figure 3: package power divided by
// four cores, under full load, from 1.8 GHz to 3.6 GHz. The paper fits
// these points with a quadratic; so do we (see FitI7Quadratic).
func I7_3770K() []Sample {
	return []Sample{
		{Freq: 1.8 * units.GHz, Power: 8.1},
		{Freq: 2.0 * units.GHz, Power: 9.0},
		{Freq: 2.2 * units.GHz, Power: 10.1},
		{Freq: 2.4 * units.GHz, Power: 11.3},
		{Freq: 2.6 * units.GHz, Power: 12.7},
		{Freq: 2.8 * units.GHz, Power: 14.2},
		{Freq: 3.0 * units.GHz, Power: 15.9},
		{Freq: 3.2 * units.GHz, Power: 17.8},
		{Freq: 3.4 * units.GHz, Power: 19.9},
		{Freq: 3.6 * units.GHz, Power: 22.2},
	}
}

// FitQuadratic least-squares fits power = A·ω² + B·ω + C (ω in GHz) to the
// samples and returns the fitted model plus the root-mean-square error of
// the fit in watts.
func FitQuadratic(samples []Sample) (Quadratic, float64, error) {
	if len(samples) < 3 {
		return Quadratic{}, 0, errors.New("energy: quadratic fit needs at least three samples")
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.Freq.GigaHertz()
		ys[i] = s.Power.Watts()
	}
	poly, err := stats.FitPolynomial(xs, ys, 2)
	if err != nil {
		return Quadratic{}, 0, fmt.Errorf("energy: %w", err)
	}
	q := Quadratic{A: poly.Coeffs[2], B: poly.Coeffs[1], C: poly.Coeffs[0]}
	var sse float64
	for i := range xs {
		d := ys[i] - poly.Eval(xs[i])
		sse += d * d
	}
	rmse := math.Sqrt(sse / float64(len(xs)))
	return q, rmse, nil
}

// FitI7Quadratic fits the embedded i7-3770K dataset, reproducing the black
// curve of the paper's Figure 3.
func FitI7Quadratic() (Quadratic, float64) {
	q, rmse, err := FitQuadratic(I7_3770K())
	if err != nil {
		// The embedded dataset is static and always fittable.
		panic(fmt.Sprintf("energy: embedded dataset unfittable: %v", err))
	}
	return q, rmse
}

// IsConvexOn numerically checks midpoint convexity of the model on a grid
// of n+1 points over [lo, hi]: g((x+y)/2) ≤ (g(x)+g(y))/2 + tol for all
// consecutive grid pairs. It is a validation helper for tests and for
// user-supplied models.
func IsConvexOn(m Model, lo, hi units.Frequency, n int) bool {
	if n < 2 || hi <= lo {
		return false
	}
	step := (float64(hi) - float64(lo)) / float64(n)
	const tol = 1e-9
	for i := 0; i+2 <= n; i++ {
		x := units.Frequency(float64(lo) + float64(i)*step)
		y := units.Frequency(float64(lo) + float64(i+2)*step)
		mid := units.Frequency(float64(lo) + float64(i+1)*step)
		lhs := m.Power(mid).Watts()
		rhs := (m.Power(x).Watts() + m.Power(y).Watts()) / 2
		if lhs > rhs+tol*(math.Abs(rhs)+1) {
			return false
		}
	}
	return true
}
