// Package lyapunov provides the virtual-queue machinery of the paper's
// drift-plus-penalty (DPP) scheme: a scalar virtual queue tracking
// accumulated budget violation, and the per-slot objective weights that
// trade the penalty (latency) against the drift (energy-cost slack).
package lyapunov

import (
	"errors"
	"math"
)

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

// DPP bundles the drift-plus-penalty weights: the per-slot objective is
// V·penalty + Q(t)·θ(t), minimized jointly over the slot's decisions.
type DPP struct {
	// V is the penalty weight: larger V favors lower latency at the price
	// of a larger converged backlog (Theorem 4's O(1/V) vs O(V) tradeoff).
	V     float64
	Queue *Queue
}

// CheckV validates a penalty weight: V must be positive and finite for
// the drift-plus-penalty objective to trade latency against backlog at
// all (shared by NewDPP and the online V retuning paths).
func CheckV(v float64) error {
	if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
		return errors.New("lyapunov: V must be positive and finite")
	}
	return nil
}

// NewDPP returns a DPP with the given V and initial backlog.
func NewDPP(v, initialBacklog float64) (*DPP, error) {
	if err := CheckV(v); err != nil {
		return nil, err
	}
	return &DPP{V: v, Queue: NewQueue(initialBacklog)}, nil
}

// Objective returns the drift-plus-penalty value V·penalty + Q·θ for a
// candidate decision's penalty and constraint violation.
func (d *DPP) Objective(penalty, theta float64) float64 {
	return d.V*penalty + d.Queue.Backlog()*theta
}

// Commit advances the queue with the realized violation θ(t) and returns
// the new backlog.
func (d *DPP) Commit(theta float64) float64 {
	return d.Queue.Update(theta)
}
