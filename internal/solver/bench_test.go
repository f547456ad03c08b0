package solver

import (
	"testing"

	"eotora/internal/rng"
)

func BenchmarkMinimize1D(b *testing.B) {
	f := func(x float64) float64 { return (x - 2.345) * (x - 2.345) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Minimize1D(f, 0, 10, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoordinateDescent(b *testing.B) {
	f := func(v []float64) float64 {
		s := 0.0
		for i, x := range v {
			d := x - float64(i)
			s += d * d
		}
		return s
	}
	lo := make([]float64, 16)
	hi := make([]float64, 16)
	for i := range hi {
		lo[i] = -20
		hi[i] = 20
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CoordinateDescent(f, lo, hi, 8, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBranchAndBound(b *testing.B) {
	src := rng.New(1)
	q := randomQCAP(src, 10, 4, 6)
	inc, incCost := zeroIncumbent(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BranchAndBound(q, BnBConfig{Incumbent: inc, IncumbentCost: incCost}); err != nil {
			b.Fatal(err)
		}
	}
}
