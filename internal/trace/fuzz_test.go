package trace

import (
	"math"
	"strings"
	"testing"
)

// FuzzLoadColumnCSV checks the CSV loader never panics and never returns
// both a value and an error on arbitrary input.
func FuzzLoadColumnCSV(f *testing.F) {
	f.Add("price\n10\n20\n", "price")
	f.Add(nyisoSample, "LBMP ($/MWHr)")
	f.Add("", "x")
	f.Add("a,b\n1\n2,3,4\n", "b")
	f.Add("p\nNaN\n", "p")
	f.Add("p\n1e309\n", "p")
	f.Add("\"q,uoted\"\n5\n", "q,uoted")
	f.Fuzz(func(t *testing.T, csv, column string) {
		vals, err := LoadColumnCSV(strings.NewReader(csv), column)
		if err != nil && vals != nil {
			t.Error("both values and error returned")
		}
		if err == nil && len(vals) == 0 {
			t.Error("nil error with empty values")
		}
	})
}

// FuzzLoadPriceCSV checks the price loader rejects non-positive values and
// never panics.
func FuzzLoadPriceCSV(f *testing.F) {
	f.Add("p\n50\n")
	f.Add("p\n-1\n")
	f.Add("p\n0\n")
	f.Fuzz(func(t *testing.T, csv string) {
		prices, err := LoadPriceCSV(strings.NewReader(csv), "p")
		if err != nil {
			return
		}
		for _, p := range prices {
			if p <= 0 {
				t.Errorf("non-positive price %v accepted", p)
			}
		}
	})
}

// FuzzCoveragePrefilter checks the exactness argument behind
// ChannelProcess.Next's coverage prefilter: for finite dx, dy and r > 0,
// |dx| > r or |dy| > r implies math.Hypot(dx, dy) > r, so skipping such a
// pair never drops one the distance test would keep.
func FuzzCoveragePrefilter(f *testing.F) {
	f.Add(520.0, 0.0, 520.0)
	f.Add(math.Nextafter(520, math.Inf(1)), 0.0, 520.0)
	f.Add(-520.0000000000001, 1e-300, 520.0)
	f.Add(3.0, 4.0, 4.999999999999999)
	f.Add(1e308, 1e308, 1e307)
	f.Add(5e-324, 0.0, 5e-324)
	f.Add(-1e-310, 1e-310, 9e-311)
	f.Fuzz(func(t *testing.T, dx, dy, r float64) {
		for _, v := range []float64{dx, dy, r} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if r <= 0 || (math.Abs(dx) <= r && math.Abs(dy) <= r) {
			return
		}
		if d := math.Hypot(dx, dy); !(d > r) {
			t.Errorf("Hypot(%v, %v) = %v <= r = %v, but the prefilter skips the pair", dx, dy, d, r)
		}
	})
}
