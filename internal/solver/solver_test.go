package solver

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"eotora/internal/rng"
)

func TestMinimize1DQuadratic(t *testing.T) {
	tests := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		wantX  float64
	}{
		{name: "interior", f: func(x float64) float64 { return (x - 2) * (x - 2) }, lo: 0, hi: 10, wantX: 2},
		{name: "left boundary", f: func(x float64) float64 { return x * x }, lo: 1, hi: 5, wantX: 1},
		{name: "right boundary", f: func(x float64) float64 { return -x }, lo: 0, hi: 3, wantX: 3},
		{name: "degenerate interval", f: func(x float64) float64 { return x * x }, lo: 4, hi: 4, wantX: 4},
		{name: "abs value kink", f: math.Abs, lo: -3, hi: 5, wantX: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x, fx, err := Minimize1D(tt.f, tt.lo, tt.hi, 1e-10)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(x-tt.wantX) > 1e-6 {
				t.Errorf("x = %v, want %v", x, tt.wantX)
			}
			if math.Abs(fx-tt.f(tt.wantX)) > 1e-9 {
				t.Errorf("f(x) = %v, want %v", fx, tt.f(tt.wantX))
			}
		})
	}
}

func TestMinimize1DErrors(t *testing.T) {
	if _, _, err := Minimize1D(math.Abs, 5, 1, 0); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, _, err := Minimize1D(math.Abs, math.NaN(), 1, 0); err == nil {
		t.Error("NaN bound accepted")
	}
}

// Property: golden-section search agrees with the closed-form minimizer
// of random convex quadratics over random boxes.
func TestSolversAgreeProperty(t *testing.T) {
	src := rng.New(123)
	prop := func(seed int64) bool {
		a := src.Uniform(0.1, 10)
		b := src.Uniform(-20, 20)
		lo := src.Uniform(-10, 10)
		hi := lo + src.Uniform(0.1, 20)
		f := func(x float64) float64 { return a*x*x + b*x }
		x, _, err := Minimize1D(f, lo, hi, 1e-12)
		if err != nil {
			return false
		}
		return math.Abs(x-math.Min(math.Max(-b/(2*a), lo), hi)) < 1e-5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCoordinateDescentSeparable(t *testing.T) {
	// f(x, y) = (x−1)² + (y+2)²: one sweep is exact.
	f := func(v []float64) float64 {
		return (v[0]-1)*(v[0]-1) + (v[1]+2)*(v[1]+2)
	}
	x, fx, err := CoordinateDescent(f, []float64{-10, -10}, []float64{10, 10}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-5 || math.Abs(x[1]+2) > 1e-5 {
		t.Errorf("x = %v, want [1 -2]", x)
	}
	if fx > 1e-9 {
		t.Errorf("f = %v, want ≈0", fx)
	}
}

func TestCoordinateDescentCoupled(t *testing.T) {
	// f(x, y) = x² + y² + xy − 3x: optimum x = 2, y = −1.
	f := func(v []float64) float64 {
		return v[0]*v[0] + v[1]*v[1] + v[0]*v[1] - 3*v[0]
	}
	x, _, err := CoordinateDescent(f, []float64{-10, -10}, []float64{10, 10}, 64, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-3 || math.Abs(x[1]+1) > 1e-3 {
		t.Errorf("x = %v, want [2 -1]", x)
	}
}

func TestCoordinateDescentErrors(t *testing.T) {
	f := func(v []float64) float64 { return 0 }
	if _, _, err := CoordinateDescent(f, []float64{0, 0}, []float64{1}, 4, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := CoordinateDescent(f, []float64{2}, []float64{1}, 4, 0); err == nil {
		t.Error("inverted box accepted")
	}
	if _, got, err := CoordinateDescent(func([]float64) float64 { return 7 }, nil, nil, 4, 0); err != nil || got != 7 {
		t.Errorf("empty box: got %v, %v", got, err)
	}
}

// resUse is one (resource, weight) pair consumed by a strategy.
type resUse struct {
	res int
	p   float64
}

// qcap is a quadratic congestion assignment problem — the structure of the
// paper's P2-A: the objective is Σ_r m_r (Σ_{i uses r} p_{i,r})², exactly
// the reduced latency of equations (18)–(19).
type qcap struct {
	weights []float64
	use     [][][]resUse // [item][option] → resources used
	loads   []float64
	cost    float64
}

func (q *qcap) Items() int               { return len(q.use) }
func (q *qcap) OptionCount(item int) int { return len(q.use[item]) }
func (q *qcap) Cost() float64            { return q.cost }

func (q *qcap) Assign(item, option int) {
	for _, u := range q.use[item][option] {
		l := q.loads[u.res]
		q.cost += q.weights[u.res] * ((l+u.p)*(l+u.p) - l*l)
		q.loads[u.res] = l + u.p
	}
}

func (q *qcap) Unassign(item, option int) {
	for _, u := range q.use[item][option] {
		l := q.loads[u.res]
		q.cost -= q.weights[u.res] * (l*l - (l-u.p)*(l-u.p))
		q.loads[u.res] = l - u.p
	}
}

// LowerBound: each unassigned item will pay at least its cheapest marginal
// cost against the *current* loads, because loads only grow.
func (q *qcap) LowerBound(assigned int) float64 {
	total := 0.0
	for i := assigned; i < len(q.use); i++ {
		best := math.Inf(1)
		for _, opt := range q.use[i] {
			m := 0.0
			for _, u := range opt {
				l := q.loads[u.res]
				m += q.weights[u.res] * (u.p*u.p + 2*u.p*l)
			}
			if m < best {
				best = m
			}
		}
		total += best
	}
	return total
}

// objectiveOf recomputes the objective of a complete assignment from
// scratch, for validating the incremental bookkeeping.
func (q *qcap) objectiveOf(a Assignment) float64 {
	loads := make([]float64, len(q.weights))
	for i, o := range a {
		for _, u := range q.use[i][o] {
			loads[u.res] += u.p
		}
	}
	obj := 0.0
	for r, l := range loads {
		obj += q.weights[r] * l * l
	}
	return obj
}

// randomQCAP builds a random instance with the given size.
func randomQCAP(src *rng.Source, items, options, resources int) *qcap {
	q := &qcap{
		weights: make([]float64, resources),
		use:     make([][][]resUse, items),
		loads:   make([]float64, resources),
	}
	for r := range q.weights {
		q.weights[r] = src.Uniform(0.1, 2)
	}
	for i := range q.use {
		q.use[i] = make([][]resUse, options)
		for o := range q.use[i] {
			// Each option uses 1–3 distinct resources.
			maxUse := 3
			if resources < maxUse {
				maxUse = resources
			}
			n := 1 + src.Intn(maxUse)
			perm := src.Perm(resources)
			uses := make([]resUse, 0, n)
			for _, r := range perm[:n] {
				uses = append(uses, resUse{res: r, p: src.Uniform(0.1, 3)})
			}
			q.use[i][o] = uses
		}
	}
	return q
}

// zeroIncumbent is a feasible warm start for BranchAndBound: every item
// at its first option, with that assignment's objective.
func zeroIncumbent(q *qcap) (Assignment, float64) {
	a := make(Assignment, q.Items())
	return a, q.objectiveOf(a)
}

// exhaustive enumerates every complete assignment and returns the optimum.
// It is exponential: the test oracle for BranchAndBound on small
// instances.
func exhaustive(p Problem) (BnBResult, error) {
	n := p.Items()
	res := BnBResult{Cost: math.Inf(1)}
	for i := 0; i < n; i++ {
		if p.OptionCount(i) == 0 {
			return res, fmt.Errorf("%w: item %d", ErrNoFeasible, i)
		}
	}
	current := make(Assignment, n)
	var rec func(item int)
	rec = func(item int) {
		if item == n {
			res.Nodes++
			if cost := p.Cost(); cost < res.Cost {
				res.Cost = cost
				res.Best = current.Clone()
			}
			return
		}
		for o := 0; o < p.OptionCount(item); o++ {
			p.Assign(item, o)
			current[item] = o
			rec(item + 1)
			p.Unassign(item, o)
		}
	}
	rec(0)
	if res.Best == nil {
		// n == 0: the empty assignment is the optimum.
		res.Best = Assignment{}
		res.Cost = p.Cost()
	}
	res.Bound = res.Cost
	res.Optimal = true
	return res, nil
}

func TestBnBMatchesExhaustive(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 30; trial++ {
		q := randomQCAP(src, 2+src.Intn(5), 2+src.Intn(3), 3+src.Intn(3))
		ex, err := exhaustive(q)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := BranchAndBound(q, BnBConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !bb.Optimal {
			t.Fatalf("trial %d: BnB not optimal without budget", trial)
		}
		if math.Abs(bb.Cost-ex.Cost) > 1e-9*(ex.Cost+1) {
			t.Fatalf("trial %d: BnB cost %v ≠ exhaustive %v", trial, bb.Cost, ex.Cost)
		}
		if got := q.objectiveOf(bb.Best); math.Abs(got-bb.Cost) > 1e-9*(got+1) {
			t.Fatalf("trial %d: reported cost %v ≠ recomputed %v", trial, bb.Cost, got)
		}
		if bb.Nodes > ex.Nodes*10 {
			t.Errorf("trial %d: BnB explored %d nodes vs %d exhaustive leaves — pruning broken?", trial, bb.Nodes, ex.Nodes)
		}
	}
}

func TestBnBWithIncumbent(t *testing.T) {
	src := rng.New(7)
	q := randomQCAP(src, 6, 3, 4)
	inc, incCost := zeroIncumbent(q)
	bb, err := BranchAndBound(q, BnBConfig{Incumbent: inc, IncumbentCost: incCost})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exhaustive(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bb.Cost-ex.Cost) > 1e-9 {
		t.Errorf("warm-started BnB cost %v ≠ optimal %v", bb.Cost, ex.Cost)
	}
	if bb.Cost > incCost+1e-9 {
		t.Errorf("BnB worse than its incumbent: %v > %v", bb.Cost, incCost)
	}
}

func TestBnBNodeBudgetTruncation(t *testing.T) {
	src := rng.New(13)
	q := randomQCAP(src, 12, 4, 5)
	bb, err := BranchAndBound(q, BnBConfig{MaxNodes: 20})
	if err != nil {
		// With a tiny budget the search may terminate before any leaf;
		// an error is acceptable only if no incumbent was found.
		t.Skipf("budget too small to find any leaf: %v", err)
	}
	if bb.Optimal {
		t.Error("truncated search claims optimality")
	}
	if bb.Bound > bb.Cost+1e-9 {
		t.Errorf("bound %v exceeds incumbent cost %v", bb.Bound, bb.Cost)
	}
	// The bound must lower-bound the true optimum.
	ex, err := exhaustive(q)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Bound > ex.Cost+1e-9 {
		t.Errorf("truncated bound %v exceeds true optimum %v", bb.Bound, ex.Cost)
	}
	if bb.Cost < ex.Cost-1e-9 {
		t.Errorf("incumbent %v beats true optimum %v", bb.Cost, ex.Cost)
	}
}

func TestBnBTimeLimit(t *testing.T) {
	src := rng.New(17)
	q := randomQCAP(src, 14, 5, 6)
	start := time.Now()
	inc, incCost := zeroIncumbent(q)
	bb, err := BranchAndBound(q, BnBConfig{TimeLimit: time.Millisecond, Incumbent: inc, IncumbentCost: incCost})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("time-limited search ran %v", elapsed)
	}
	if bb.Best == nil {
		t.Error("no incumbent returned")
	}
}

func TestBnBErrors(t *testing.T) {
	q := &qcap{
		weights: []float64{1},
		use:     [][][]resUse{{}}, // one item, zero options
		loads:   []float64{0},
	}
	if _, err := BranchAndBound(q, BnBConfig{}); err == nil {
		t.Error("item without options accepted")
	}
	if _, err := exhaustive(q); err == nil {
		t.Error("exhaustive accepted item without options")
	}
	ok := randomQCAP(rng.New(1), 3, 2, 3)
	if _, err := BranchAndBound(ok, BnBConfig{Incumbent: Assignment{0}}); err == nil {
		t.Error("short incumbent accepted")
	}
}

func TestBnBEmptyProblem(t *testing.T) {
	q := &qcap{weights: []float64{1}, loads: []float64{0}}
	res, err := BranchAndBound(q, BnBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Cost != 0 || len(res.Best) != 0 {
		t.Errorf("empty problem result %+v", res)
	}
	exr, err := exhaustive(q)
	if err != nil {
		t.Fatal(err)
	}
	if !exr.Optimal || exr.Cost != 0 {
		t.Errorf("empty exhaustive result %+v", exr)
	}
}

// Property: on random small instances, BnB with a warm start is optimal.
func TestBnBProperty(t *testing.T) {
	src := rng.New(31)
	prop := func(seed int64) bool {
		q := randomQCAP(src, 2+src.Intn(4), 2+src.Intn(2), 2+src.Intn(3))
		inc, incCost := zeroIncumbent(q)
		bb, err := BranchAndBound(q, BnBConfig{Incumbent: inc, IncumbentCost: incCost})
		if err != nil || !bb.Optimal {
			return false
		}
		ex, err := exhaustive(q)
		if err != nil {
			return false
		}
		return math.Abs(bb.Cost-ex.Cost) <= 1e-9*(ex.Cost+1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
