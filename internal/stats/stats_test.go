package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	tests := []struct {
		name     string
		xs       []float64
		mean     float64
		variance float64
	}{
		{name: "constant", xs: []float64{5, 5, 5}, mean: 5, variance: 0},
		{name: "simple", xs: []float64{1, 2, 3, 4}, mean: 2.5, variance: 1.25},
		{name: "negative", xs: []float64{-2, 2}, mean: 0, variance: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
			if got := Variance(tt.xs); !almostEqual(got, tt.variance, 1e-12) {
				t.Errorf("Variance = %v, want %v", got, tt.variance)
			}
		})
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) ||
		!math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("aggregate over empty input should be NaN")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	tests := []struct {
		q, want float64
	}{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{-0.5, 1}, // clamped
		{1.5, 4},  // clamped
		{0.25, 1.75},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Correlation(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("Correlation = %v, %v, want 1, nil", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Correlation(xs, neg)
	if err != nil || !almostEqual(r, -1, 1e-12) {
		t.Errorf("anti Correlation = %v, %v, want -1, nil", r, err)
	}
	if _, err := Correlation(xs, []float64{1, 2}); err == nil {
		t.Error("length mismatch not detected")
	}
	if _, err := Correlation(xs, []float64{3, 3, 3, 3, 3}); err == nil {
		t.Error("constant series not detected")
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point fit should fail")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant-x fit should fail")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestPolynomialEval(t *testing.T) {
	p := Polynomial{Coeffs: []float64{1, -2, 3}} // 1 − 2x + 3x²
	tests := []struct {
		x, want float64
	}{
		{0, 1},
		{1, 2},
		{2, 9},
		{-1, 6},
	}
	for _, tt := range tests {
		if got := p.Eval(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Eval(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestFitPolynomialRecoversQuadratic(t *testing.T) {
	// Paper Figure 3: power = a ω² + b ω + c. Verify exact recovery.
	truth := Polynomial{Coeffs: []float64{4.1, -1.3, 7.9}}
	var xs, ys []float64
	for x := 1.8; x <= 3.61; x += 0.2 {
		xs = append(xs, x)
		ys = append(ys, truth.Eval(x))
	}
	fit, err := FitPolynomial(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range truth.Coeffs {
		if !almostEqual(fit.Coeffs[i], c, 1e-6) {
			t.Errorf("coeff %d = %v, want %v", i, fit.Coeffs[i], c)
		}
	}
}

func TestFitPolynomialErrors(t *testing.T) {
	if _, err := FitPolynomial([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("negative degree should fail")
	}
	if _, err := FitPolynomial([]float64{1, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FitPolynomial([]float64{1, 2}, []float64{1, 2}, 2); err == nil {
		t.Error("too few points should fail")
	}
}

func TestSolveLinear(t *testing.T) {
	// 2x + y = 5; x − y = 1 → x = 2, y = 1.
	x, err := SolveLinear([][]float64{{2, 1}, {1, -1}}, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 1, 1e-12) {
		t.Errorf("solution = %v, want [2 1]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	_, err := SolveLinear([][]float64{{1, 1}, {2, 2}}, []float64{1, 2})
	if err == nil {
		t.Error("singular system should fail")
	}
}

func TestSolveLinearShapeErrors(t *testing.T) {
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("row-count mismatch should fail")
	}
	if _, err := SolveLinear([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix should fail")
	}
}

func TestSolveLinearDoesNotMutateInputs(t *testing.T) {
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != -1 || b[0] != 5 {
		t.Error("SolveLinear mutated its inputs")
	}
}

func TestDiff(t *testing.T) {
	got := Diff([]float64{1, 4, 2})
	if len(got) != 2 || got[0] != 3 || got[1] != -2 {
		t.Errorf("Diff = %v, want [3 -2]", got)
	}
	if Diff([]float64{1}) != nil {
		t.Error("Diff of single element should be nil")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileProperty(t *testing.T) {
	prop := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		return qa <= qb && qa >= Min(xs) && qb <= Max(xs)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"equal shares", []float64{2, 2, 2, 2}, 1},
		{"one hog", []float64{1, 0, 0, 0}, 0.25},
		{"all zero treated fair", []float64{0, 0}, 1},
		{"two of four", []float64{1, 1, 0, 0}, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := JainIndex(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("JainIndex = %v, want %v", got, tt.want)
			}
		})
	}
	if !math.IsNaN(JainIndex(nil)) {
		t.Error("empty index should be NaN")
	}
}

// Property: Jain's index is scale-invariant and within [1/n, 1].
func TestJainIndexProperty(t *testing.T) {
	prop := func(raw []float64, scale float64) bool {
		// quick draws magnitudes up to 1.8e308, whose squares overflow;
		// fold them into a finite range so every draw is checked.
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			xs = append(xs, math.Mod(math.Abs(v), 1e6))
		}
		if len(xs) == 0 {
			return true
		}
		j := JainIndex(xs)
		if j < 1/float64(len(xs))-1e-9 || j > 1+1e-9 {
			return false
		}
		s := math.Mod(math.Abs(scale), 1e3)
		if s == 0 {
			return true
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * s
		}
		return math.Abs(JainIndex(scaled)-j) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAutocorrelation(t *testing.T) {
	// A period-4 sawtooth has ACF ≈ 1 at lag 4 and negative at lag 2.
	var xs []float64
	for i := 0; i < 400; i++ {
		xs = append(xs, float64(i%4))
	}
	if got := Autocorrelation(xs, 0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("lag-0 ACF = %v, want 1", got)
	}
	if got := Autocorrelation(xs, 4); got < 0.9 {
		t.Errorf("lag-4 ACF = %v, want ≈1", got)
	}
	if got := Autocorrelation(xs, 2); got > -0.3 {
		t.Errorf("lag-2 ACF = %v, want strongly negative", got)
	}
	if !math.IsNaN(Autocorrelation(xs[:3], 4)) {
		t.Error("short series should be NaN")
	}
	if !math.IsNaN(Autocorrelation([]float64{5, 5, 5, 5}, 1)) {
		t.Error("constant series should be NaN")
	}
	if !math.IsNaN(Autocorrelation(xs, -1)) {
		t.Error("negative lag should be NaN")
	}
}
