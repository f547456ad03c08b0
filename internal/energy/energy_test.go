package energy

import (
	"math"
	"testing"
	"testing/quick"

	"eotora/internal/rng"
	"eotora/internal/units"
)

func TestQuadraticPower(t *testing.T) {
	q := Quadratic{A: 2, B: 3, C: 1}
	tests := []struct {
		f    units.Frequency
		want float64
	}{
		{0, 1},
		{1 * units.GHz, 6},
		{2 * units.GHz, 15},
		{0.5 * units.GHz, 3},
	}
	for _, tt := range tests {
		if got := q.Power(tt.f).Watts(); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Power(%v) = %v, want %v", tt.f, got, tt.want)
		}
	}
}

func TestQuadraticPerturb(t *testing.T) {
	q := Quadratic{A: 4, B: -2, C: 10}
	p := q.Perturb(1) // e = +1σ
	if math.Abs(p.A-4*1.01) > 1e-12 {
		t.Errorf("A = %v, want %v (1%% sensitivity)", p.A, 4*1.01)
	}
	if math.Abs(p.B-(-2*1.1)) > 1e-12 {
		t.Errorf("B = %v, want %v (10%% sensitivity)", p.B, -2*1.1)
	}
	if math.Abs(p.C-10*1.1) > 1e-12 {
		t.Errorf("C = %v, want %v (10%% sensitivity)", p.C, 10*1.1)
	}
	// e = 0 must be the identity.
	if q.Perturb(0) != q {
		t.Error("Perturb(0) is not identity")
	}
}

func TestLinearPower(t *testing.T) {
	l := Linear{Slope: 5, Intercept: 2}
	if got := l.Power(2 * units.GHz).Watts(); math.Abs(got-12) > 1e-12 {
		t.Errorf("Power = %v, want 12", got)
	}
	if !IsConvexOn(l, 1*units.GHz, 4*units.GHz, 16) {
		t.Error("linear model not detected as convex")
	}
}

func TestI7DatasetShape(t *testing.T) {
	samples := I7_3770K()
	if len(samples) != 10 {
		t.Fatalf("dataset has %d samples, want 10 (1.8–3.6 GHz in 0.2 steps)", len(samples))
	}
	if samples[0].Freq != 1.8*units.GHz || samples[len(samples)-1].Freq != 3.6*units.GHz {
		t.Errorf("dataset range [%v, %v], want [1.8 GHz, 3.6 GHz]", samples[0].Freq, samples[len(samples)-1].Freq)
	}
	// Power must be strictly increasing and marginal power non-decreasing
	// (the convexity the paper observes in real data).
	for i := 1; i < len(samples); i++ {
		if samples[i].Power <= samples[i-1].Power {
			t.Errorf("power not increasing at sample %d", i)
		}
	}
	for i := 2; i < len(samples); i++ {
		d1 := samples[i-1].Power - samples[i-2].Power
		d2 := samples[i].Power - samples[i-1].Power
		if d2 < d1-1e-9 {
			t.Errorf("marginal power decreases at sample %d: %v then %v", i, d1, d2)
		}
	}
}

func TestFitI7Quadratic(t *testing.T) {
	q, rmse := FitI7Quadratic()
	if q.A <= 0 {
		t.Errorf("fitted quadratic has A = %v, want > 0 (convex)", q.A)
	}
	if rmse > 0.2 {
		t.Errorf("fit RMSE = %v W, want < 0.2 (quadratic should fit the data well)", rmse)
	}
	// The fitted curve must track the data closely at the endpoints.
	for _, s := range []Sample{I7_3770K()[0], I7_3770K()[9]} {
		got := q.Power(s.Freq).Watts()
		if math.Abs(got-s.Power.Watts()) > 0.5 {
			t.Errorf("fit at %v = %vW, data %vW", s.Freq, got, s.Power.Watts())
		}
	}
	if !IsConvexOn(q, 1.8*units.GHz, 3.6*units.GHz, 32) {
		t.Error("fitted quadratic not convex on operating range")
	}
}

func TestFitQuadraticErrors(t *testing.T) {
	if _, _, err := FitQuadratic(I7_3770K()[:2]); err == nil {
		t.Error("fit with two samples accepted")
	}
}

func TestFitQuadraticRecovery(t *testing.T) {
	// Generate exact quadratic data and verify recovery.
	truth := Quadratic{A: 3.3, B: -4.7, C: 12.5}
	var samples []Sample
	for ghz := 1.0; ghz <= 4.01; ghz += 0.25 {
		f := units.Frequency(ghz * 1e9)
		samples = append(samples, Sample{Freq: f, Power: truth.Power(f)})
	}
	got, rmse, err := FitQuadratic(samples)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 1e-9 {
		t.Errorf("RMSE = %v on exact data", rmse)
	}
	if math.Abs(got.A-truth.A) > 1e-6 || math.Abs(got.B-truth.B) > 1e-6 || math.Abs(got.C-truth.C) > 1e-6 {
		t.Errorf("recovered %+v, want %+v", got, truth)
	}
}

func TestPerturbedModelsStayConvex(t *testing.T) {
	// The paper's perturbation keeps A within ±1%·e; for |e| ≤ 4 the
	// quadratic stays convex. Check a population of perturbed servers.
	base, _ := FitI7Quadratic()
	src := rng.New(99)
	for i := 0; i < 64; i++ {
		e := src.TruncNormal(0, 1, -4, 4)
		m := base.Perturb(e)
		if !IsConvexOn(m, 1.8*units.GHz, 3.6*units.GHz, 16) {
			t.Errorf("perturbed model (e=%v) lost convexity: %+v", e, m)
		}
		if m.Power(1.8*units.GHz) <= 0 {
			t.Errorf("perturbed model (e=%v) has non-positive power at F^L", e)
		}
	}
}

func TestIsConvexOnDetectsConcavity(t *testing.T) {
	concave := Quadratic{A: -2, B: 20, C: 0}
	if IsConvexOn(concave, 1*units.GHz, 4*units.GHz, 16) {
		t.Error("concave quadratic reported convex")
	}
	// Degenerate arguments.
	if IsConvexOn(concave, 4*units.GHz, 1*units.GHz, 16) {
		t.Error("inverted range should report false")
	}
	if IsConvexOn(concave, 1*units.GHz, 4*units.GHz, 1) {
		t.Error("single-interval grid should report false")
	}
}

// Property: quadratic models with A ≥ 0 always pass the convexity check.
func TestQuadraticConvexityProperty(t *testing.T) {
	prop := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		q := Quadratic{A: math.Abs(math.Mod(a, 1e3)), B: math.Mod(b, 1e3), C: math.Mod(c, 1e3)}
		return IsConvexOn(q, 1*units.GHz, 4*units.GHz, 16)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
