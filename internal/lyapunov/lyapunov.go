// Package lyapunov holds the scalar virtual queue of the paper's
// drift-plus-penalty (DPP) scheme, tracking accumulated budget violation.
// The controller and the baselines keep their queues in core.Budget, the
// one-or-more-group form of the same recurrence; this package has no
// caller outside its tests.
package lyapunov

import "math"

// Queue is the virtual queue of equation (21):
//
//	Q(t+1) = max{Q(t) + θ(t), 0},
//
// where θ(t) = C_t − C̄ is the slot's budget violation. The zero value is
// a queue starting at Q(1) = 0.
type Queue struct {
	backlog float64
}

// NewQueue returns a queue with the given initial backlog Q(1);
// negative initial backlogs are clamped to zero.
func NewQueue(initial float64) *Queue {
	if initial < 0 || math.IsNaN(initial) {
		initial = 0
	}
	return &Queue{backlog: initial}
}

// Backlog returns the current Q(t).
func (q *Queue) Backlog() float64 { return q.backlog }

// Update applies equation (21) with violation θ(t) and returns the new
// backlog.
func (q *Queue) Update(theta float64) float64 {
	q.backlog = math.Max(q.backlog+theta, 0)
	return q.backlog
}
