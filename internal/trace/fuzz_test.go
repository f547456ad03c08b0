package trace

import (
	"math"
	"slices"
	"strings"
	"testing"

	"eotora/internal/topology"
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

// FuzzCellTable checks the exactness of the channel process's cell
// table: for finite positions and radii, a station left out of a
// device's candidate list fails the coverage prefilter |dx| > r ||
// |dy| > r at the device, whatever the grid (its cell size follows area
// and r), wherever the device sits — on a cell edge, off the grid, or
// where rounding px/size lands it in the neighbouring cell. A second
// station, listed or not, checks the list's ascending order.
func FuzzCellTable(f *testing.F) {
	f.Add(770.0, 250.0, 520.0, 250.0, 250.0, 5000.0)                  // bx−r on a cell edge
	f.Add(770.0, 250.0, 520.0, math.Nextafter(250, 0), 250.0, 5000.0) // just left of it
	f.Add(math.Nextafter(770, 0), 250.0, 520.0, 250.0, 250.0, 5000.0) // bound an ulp inside
	f.Add(0.8, 0.5, 0.5, 0.3, 0.5, 1.0)                               // 0.3/0.1 rounds below 3
	f.Add(0.1+0.2, 0.7, 0.4, 0.7000000000000001, 0.7, 1.0)            // bx+r on a rounded edge
	f.Add(-520.0, -1.0, 520.0, 0.0, -1e-300, 5000.0)                  // below the grid
	f.Add(5600.0, 5600.0, 600.0, 5000.0, 5000.0, 5000.0)              // above the grid
	f.Add(2500.0, 2500.0, 1e308, -1e308, 1e308, 5000.0)               // radius past the grid
	f.Add(3.0, 3.0, -2.0, 3.0, 3.0, 10.0)                             // negative radius
	f.Add(5e-324, 5e-324, 5e-324, 1e-323, 0.0, 1e-320)                // subnormal grid
	f.Add(1e308, 1e308, 1e307, 9.5e307, 1e308, math.MaxFloat64)       // near overflow
	f.Add(1e15+0.5, 7.0, 1e-3, 1e15+0.5009765625, 7.0, 2e15)          // r below an ulp of x
	f.Fuzz(func(t *testing.T, bx, by, r, px, py, area float64) {
		for _, v := range []float64{bx, by, r, px, py, area} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		stations := []topology.BaseStation{
			{Pos: topology.Point{X: area / 2, Y: area / 2}, CoverageRadius: area / 3},
			{Pos: topology.Point{X: bx, Y: by}, CoverageRadius: r},
		}
		table := newCellTable(stations, area)
		list := table.candidates(topology.Point{X: px, Y: py})
		for j := 1; j < len(list); j++ {
			if list[j] <= list[j-1] {
				t.Fatalf("candidates %v not strictly ascending", list)
			}
		}
		for k, bs := range stations {
			if slices.Contains(list, int32(k)) {
				continue
			}
			dx, dy := bs.Pos.X-px, bs.Pos.Y-py
			if !(math.Abs(dx) > bs.CoverageRadius || math.Abs(dy) > bs.CoverageRadius) {
				t.Errorf("station %d at %+v (r %v) passes the prefilter at (%v, %v) but is not in its cell's list %v (side %d, size %v)",
					k, bs.Pos, bs.CoverageRadius, px, py, list, table.side, table.size)
			}
		}
	})
}
