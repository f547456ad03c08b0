// Package stats provides the small numerical-statistics toolkit the EOTORA
// simulator needs: descriptive statistics, running aggregates, windowed
// time-series summaries, Pearson correlation, and least-squares polynomial
// fitting (used to fit the quadratic energy-consumption curve of Figure 3
// and to verify the linear backlog-versus-V relationship of Figure 8).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregate functions invoked on empty data.
var ErrEmpty = errors.New("stats: empty data")

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns NaN for empty input
// and clamps q into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Correlation returns the Pearson correlation coefficient of xs and ys.
// It returns an error when the lengths differ, the series are shorter than
// two points, or either series is constant.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: correlation length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: correlation of constant series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// LinearFit holds a least-squares line y = Slope*x + Intercept and its
// coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine performs ordinary least squares on (xs, ys).
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: fit length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: fit with constant x")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	// R² = 1 − SS_res/SS_tot.
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Polynomial is a polynomial in ascending-degree coefficient order:
// Coeffs[k] multiplies x^k.
type Polynomial struct {
	Coeffs []float64
}

// Eval evaluates the polynomial at x using Horner's rule.
func (p Polynomial) Eval(x float64) float64 {
	v := 0.0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*x + p.Coeffs[i]
	}
	return v
}

// FitPolynomial performs least-squares fitting of a degree-d polynomial to
// (xs, ys) by solving the normal equations with partially pivoted Gaussian
// elimination. It needs at least d+1 points.
func FitPolynomial(xs, ys []float64, degree int) (Polynomial, error) {
	if degree < 0 {
		return Polynomial{}, fmt.Errorf("stats: negative degree %d", degree)
	}
	if len(xs) != len(ys) {
		return Polynomial{}, fmt.Errorf("stats: fit length mismatch %d vs %d", len(xs), len(ys))
	}
	n := degree + 1
	if len(xs) < n {
		return Polynomial{}, fmt.Errorf("stats: need at least %d points for degree %d, got %d", n, degree, len(xs))
	}
	// Build normal equations A c = b with A[j][k] = Σ x^(j+k), b[j] = Σ y x^j.
	a := make([][]float64, n)
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		a[j] = make([]float64, n)
	}
	for i := range xs {
		pow := make([]float64, 2*n-1)
		pow[0] = 1
		for k := 1; k < len(pow); k++ {
			pow[k] = pow[k-1] * xs[i]
		}
		for j := 0; j < n; j++ {
			b[j] += ys[i] * pow[j]
			for k := 0; k < n; k++ {
				a[j][k] += pow[j+k]
			}
		}
	}
	coeffs, err := SolveLinear(a, b)
	if err != nil {
		return Polynomial{}, fmt.Errorf("stats: polynomial fit: %w", err)
	}
	return Polynomial{Coeffs: coeffs}, nil
}

// SolveLinear solves the dense linear system a·x = b in place using Gaussian
// elimination with partial pivoting. a must be square with len(a) == len(b).
// The inputs are copied; callers' slices are not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	if len(a) != n {
		return nil, fmt.Errorf("stats: system shape mismatch: %d rows, %d rhs", len(a), n)
	}
	// Copy into an augmented matrix.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-300 {
			return nil, errors.New("stats: singular system")
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			factor := m[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := m[i][n]
		for c := i + 1; c < n; c++ {
			v -= m[i][c] * x[c]
		}
		x[i] = v / m[i][i]
	}
	return x, nil
}

// Diff returns the first differences xs[i+1]−xs[i].
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := range out {
		out[i] = xs[i+1] - xs[i]
	}
	return out
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) of a non-negative
// allocation: 1 for perfectly equal shares, 1/n for maximally unfair. It
// returns NaN for empty input and treats an all-zero allocation as fair.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// Autocorrelation returns the lag-k sample autocorrelation of xs, the
// standard tool for detecting periodicity in a time series (the Figure 7
// backlog oscillates with the daily price cycle, so its ACF peaks at the
// period lag). It returns NaN when the series is shorter than lag+2 or
// constant.
func Autocorrelation(xs []float64, lag int) float64 {
	if lag < 0 || len(xs) < lag+2 {
		return math.NaN()
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < len(xs); i++ {
		d := xs[i] - m
		den += d * d
		if i+lag < len(xs) {
			num += d * (xs[i+lag] - m)
		}
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
