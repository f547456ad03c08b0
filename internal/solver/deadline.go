package solver

import "time"

// Deadline is a cooperative per-solve budget shared by the layers of a
// slot solve (BDMA rounds, CGBA/MCBA iterations, P2-B calls). It supports
// two independent budgets, whichever exhausts first wins:
//
//   - a timed budget (Start with budget > 0): the solve expires when
//     wall-clock time runs out;
//   - a counted checkpoint budget (Start with checks > 0): the solve
//     expires after the given number of Expired checkpoints, a
//     deterministic, machine-independent alternative for reproducible
//     degraded runs (identical at every pool size, because the
//     checkpoint sequence is part of the bit-identical solve contract).
//
// A nil *Deadline never expires, so unconditional Expired checks cost a
// nil test on the undeadlined path. Deadlines are single-goroutine state:
// exactly one solve may poll a Deadline at a time (the parallel slot
// solve drives pool workers from inside a single solver call, so this
// holds throughout the stack).
type Deadline struct {
	expireAt time.Time
	checks   int
	timed    bool
	counted  bool
	expired  bool
}

// Start arms the deadline with a wall-clock budget from now and/or a
// checkpoint budget. Non-positive budgets disarm their dimension; calling
// with both non-positive fully disarms the deadline. Any sticky expiry
// from a previous solve is cleared.
func (d *Deadline) Start(budget time.Duration, checks int) {
	*d = Deadline{}
	if budget > 0 {
		d.timed = true
		d.expireAt = time.Now().Add(budget)
	}
	if checks > 0 {
		d.counted = true
		d.checks = checks
	}
}

// Consume deducts dt from the timed budget — the hook fault injection
// uses to model a solver stall without sleeping. It has no effect on the
// checkpoint budget, on an unarmed deadline, or on a nil receiver.
func (d *Deadline) Consume(dt time.Duration) {
	if d == nil || !d.timed || dt <= 0 {
		return
	}
	d.expireAt = d.expireAt.Add(-dt)
}

// ExpireTime returns the wall-clock expiry instant and whether a timed
// budget is armed. Unlike Expired it mutates nothing — no checkpoint is
// consumed and expiry does not stick — so the snapshot may be compared
// against the clock from concurrent shard workers while the owning
// goroutine keeps sole use of the stateful polls. Nil-safe.
func (d *Deadline) ExpireTime() (time.Time, bool) {
	if d == nil || !d.timed {
		return time.Time{}, false
	}
	return d.expireAt, true
}

// Expired is the per-checkpoint poll: it reports whether either budget is
// exhausted, consuming one checkpoint from the counted budget when armed.
// Expiry is sticky until the next Start. Nil or unarmed deadlines never
// expire.
func (d *Deadline) Expired() bool {
	if d == nil || d.expired {
		return d != nil && d.expired
	}
	if d.counted {
		if d.checks == 0 {
			d.expired = true
			return true
		}
		d.checks--
	}
	if d.timed && !time.Now().Before(d.expireAt) {
		d.expired = true
	}
	return d.expired
}
