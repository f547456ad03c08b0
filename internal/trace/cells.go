package trace

import (
	"math"

	"eotora/internal/topology"
)

// maxCellSide caps the cell table's grid at maxCellSide² cells.
const maxCellSide = 64

// cellTable indexes stations by a uniform grid of square cells over
// [0, area]², built once per channel process. Cell (cx, cy) lists, in
// ascending order, every station whose coverage square [x−r, x+r] ×
// [y−r, y+r], widened by a rounding pad, meets the cell; points outside
// the grid fall into its border cells. For finite positions and radii, a
// station left out of a device's cell list fails the coverage prefilter
// |dx| > r || |dy| > r at the device, so scanning the list finds exactly
// the pairs a scan over every station would (FuzzCellTable):
//
//   - a station passes the prefilter at x only if fl(bx − x) lies in
//     [−r, r], which puts x within 2⁻⁵¹·|r| (or one subnormal step) of
//     [bx − r, bx + r];
//   - the pad of 2⁻⁴⁸·(|bx| + |r|) + 2⁻¹⁰²² covers that slack and the
//     rounding of the bounds themselves;
//   - axis is monotone in x, so a point between the padded bounds maps
//     to a cell between theirs.
type cellTable struct {
	side int     // cells per axis
	size float64 // cell edge length
	// Cell c = cy·side + cx lists sta[off[c]:off[c+1]].
	off []int32
	sta []int32
}

// newCellTable builds the table for the stations over [0, area]². The
// cell edge is half the smallest positive finite coverage radius, so a
// cell's list holds little beyond the stations that can cover its
// points, at most maxCellSide cells per axis.
func newCellTable(stations []topology.BaseStation, area float64) cellTable {
	minR := math.Inf(1)
	for k := range stations {
		if r := stations[k].CoverageRadius; r > 0 && r < minR {
			minR = r
		}
	}
	side := 1
	if n := math.Ceil(2 * area / minR); n > 1 {
		side = int(math.Min(n, maxCellSide))
	}
	t := cellTable{side: side, size: area / float64(side)}
	if !(t.size > 0) || math.IsInf(t.size, 0) {
		t.side, t.size = 1, 1
	}
	// Counting sort: size each list, then fill in ascending station
	// order.
	lists := t.side * t.side
	t.off = make([]int32, lists+2)
	t.visit(stations, func(c int32, _ int) { t.off[c+2]++ })
	for c := 2; c < len(t.off); c++ {
		t.off[c] += t.off[c-1]
	}
	t.sta = make([]int32, t.off[lists+1])
	t.visit(stations, func(c int32, k int) {
		t.sta[t.off[c+1]] = int32(k)
		t.off[c+1]++
	})
	t.off = t.off[:lists+1]
	return t
}

// visit calls fn(c, k) for every cell c whose list holds station k, in
// ascending station order.
func (t *cellTable) visit(stations []topology.BaseStation, fn func(c int32, k int)) {
	for k := range stations {
		bs := &stations[k]
		x0, x1 := t.span(bs.Pos.X, bs.CoverageRadius)
		y0, y1 := t.span(bs.Pos.Y, bs.CoverageRadius)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				fn(int32(cy*t.side+cx), k)
			}
		}
	}
}

// span returns the cell range [lo, hi] along one axis that a station at
// coordinate c with radius r can reach.
func (t *cellTable) span(c, r float64) (lo, hi int) {
	pad := (math.Abs(c)+math.Abs(r))*0x1p-48 + 0x1p-1022
	return t.axis(c - r - pad), t.axis(c + r + pad)
}

// axis returns the cell coordinate of v: monotone in v, and clamped to
// the grid.
func (t *cellTable) axis(v float64) int {
	x := v / t.size
	switch {
	case !(x >= 1):
		return 0
	case x >= float64(t.side-1):
		return t.side - 1
	}
	return int(x)
}

// candidates returns, in ascending order, the stations that may cover a
// device at pos.
func (t *cellTable) candidates(pos topology.Point) []int32 {
	c := t.axis(pos.Y)*t.side + t.axis(pos.X)
	return t.sta[t.off[c]:t.off[c+1]]
}
