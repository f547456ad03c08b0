package lyapunov

import (
	"math"
	"testing"
	"testing/quick"

	"eotora/internal/rng"
)

func TestQueueUpdate(t *testing.T) {
	tests := []struct {
		name   string
		init   float64
		thetas []float64
		want   float64
	}{
		{name: "accumulates positive violations", init: 0, thetas: []float64{1, 2, 3}, want: 6},
		{name: "clamps at zero", init: 0, thetas: []float64{5, -10}, want: 0},
		{name: "recovers after clamp", init: 0, thetas: []float64{-3, 4}, want: 4},
		{name: "initial backlog", init: 10, thetas: []float64{-4}, want: 6},
		{name: "negative initial clamped", init: -5, thetas: nil, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := NewQueue(tt.init)
			for _, th := range tt.thetas {
				q.Update(th)
			}
			if got := q.Backlog(); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("backlog = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestQueueNaNInitialClamped(t *testing.T) {
	if got := NewQueue(math.NaN()).Backlog(); got != 0 {
		t.Errorf("NaN initial backlog = %v, want 0", got)
	}
}

func TestQueueZeroValueUsable(t *testing.T) {
	var q Queue
	if q.Backlog() != 0 {
		t.Error("zero-value queue has non-zero backlog")
	}
	if got := q.Update(2.5); got != 2.5 {
		t.Errorf("Update = %v, want 2.5", got)
	}
}

// Property: backlog is always ≥ 0 and matches the explicit recursion.
func TestQueueProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		q := NewQueue(0)
		ref := 0.0
		for _, th := range raw {
			if math.IsNaN(th) || math.Abs(th) > 1e12 {
				continue
			}
			got := q.Update(th)
			ref = math.Max(ref+th, 0)
			if got < 0 || math.Abs(got-ref) > 1e-9*(ref+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Stability: with negative-mean violations the time-averaged backlog stays
// bounded (Q/T → 0), the feasibility condition of Assumption 1.
func TestQueueStability(t *testing.T) {
	src := rng.New(1)
	q := NewQueue(0)
	const slots = 50000
	for i := 0; i < slots; i++ {
		q.Update(src.Normal(-0.2, 1)) // E[θ] = −0.2 < 0
	}
	if avg := q.Backlog() / slots; avg > 0.01 {
		t.Errorf("Q(T)/T = %v, want ≈ 0 for stable queue", avg)
	}
}
