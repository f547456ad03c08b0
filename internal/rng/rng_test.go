package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Children derived under different names must produce different streams.
	root1 := New(7)
	root2 := New(7)
	c1 := root1.Derive("price")
	c2 := root2.Derive("channel")
	same := 0
	for i := 0; i < 50; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("differently named children matched on %d/50 draws", same)
	}
}

func TestDeriveReproducible(t *testing.T) {
	c1 := New(7).Derive("price")
	c2 := New(7).Derive("price")
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatalf("same-name children diverged at draw %d", i)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	lo, hi := 50.0, 200.0
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.Uniform(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("Uniform(%v,%v) = %v out of range", lo, hi, v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-125) > 2 {
		t.Errorf("Uniform mean = %v, want ≈125", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(2)
	const n = 50000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v, want ≈10", mean)
	}
	if math.Abs(variance-9) > 0.5 {
		t.Errorf("Normal variance = %v, want ≈9", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive value %v", v)
		}
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(4)
	tests := []struct {
		name             string
		mean, sd, lo, hi float64
	}{
		{name: "centered", mean: 0, sd: 1, lo: -1, hi: 1},
		{name: "tight band far from mean", mean: 0, sd: 1, lo: 8, hi: 8.5},
		{name: "inverted bounds are swapped", mean: 5, sd: 2, lo: 7, hi: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			lo, hi := tt.lo, tt.hi
			if lo > hi {
				lo, hi = hi, lo
			}
			for i := 0; i < 200; i++ {
				v := s.TruncNormal(tt.mean, tt.sd, tt.lo, tt.hi)
				if v < lo || v > hi {
					t.Fatalf("TruncNormal = %v outside [%v,%v]", v, lo, hi)
				}
			}
		})
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(5)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) frequency = %v", freq)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(9)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

// Property: Clamp output is always within bounds and idempotent.
func TestClampProperty(t *testing.T) {
	prop := func(v, a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		c := Clamp(v, lo, hi)
		return c >= lo && c <= hi && Clamp(c, lo, hi) == c
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Uniform stays inside its interval for arbitrary bounds.
func TestUniformProperty(t *testing.T) {
	s := New(11)
	prop := func(a, b float64) bool {
		// quick draws magnitudes up to 1.8e308, where hi−lo overflows;
		// fold them into a finite range so every draw is checked.
		a, b = math.Mod(a, 1e6), math.Mod(b, 1e6)
		lo, hi := math.Min(a, b), math.Max(a, b)
		if lo == hi {
			return true
		}
		v := s.Uniform(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
