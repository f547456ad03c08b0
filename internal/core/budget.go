package core

import (
	"errors"
	"fmt"
	"math"

	"eotora/internal/trace"
	"eotora/internal/units"
)

// Budget is the energy-budget state of a drift-plus-penalty policy: the
// virtual queues of equation (21), one per budget group,
//
//	Q_g(t+1) = max{Q_g(t) + θ_g(t), 0},  θ_g(t) = C_{g,t} − C̄_g,
//
// where a group is a set of servers sharing one time-average cost cap.
// The paper's global budget is the one-group case: every server, capped
// by System.Budget. Per-room budgets (System.RoomBudgets, an extension
// beyond the paper) form one group per room, in Net.Rooms order — the
// multi-constraint form of the same rule (Neely [30], Ch. 4).
//
// Sums are taken in a fixed order: each group's cost over its servers in
// server order, then the penalty, Θ and the backlog total over the groups
// in group order. With one group the pricing is P2Objective and
// ThetaActive bit for bit; with any number of rooms it is deterministic.
// The caps are read from the System when the Budget is built.
type Budget struct {
	sys   *System
	group []int32       // budget group of each server
	cap   []units.Money // C̄_g
	q     []float64     // Q_g(t)
	theta []float64     // θ_g of the last pricing (scratch)
	rooms []int         // room ID of each group; nil for the global group
}

// NewBudget returns the budget state of a policy over sys, starting at
// Q(1) = initial: one global group, or one group per room when
// sys.RoomBudgets is set. A negative or NaN initial backlog is clamped
// to zero; per-room queues start at zero, so a nonzero initial backlog
// is rejected in per-room mode rather than dropped.
func NewBudget(sys *System, initial float64) (*Budget, error) {
	if sys.RoomBudgets == nil {
		if !(initial > 0) {
			initial = 0
		}
		return sys.globalBudget(initial), nil
	}
	if err := sys.ValidateRoomBudgets(); err != nil {
		return nil, err
	}
	if initial != 0 {
		return nil, fmt.Errorf("core: initial backlog %v with per-room budgets: per-room queues start at 0", initial)
	}
	groups := len(sys.Net.Rooms)
	b := &Budget{
		sys:   sys,
		group: make([]int32, len(sys.Net.Servers)),
		cap:   make([]units.Money, groups),
		q:     make([]float64, groups),
		theta: make([]float64, groups),
		rooms: make([]int, groups),
	}
	index := make(map[int]int32, groups)
	for g, r := range sys.Net.Rooms {
		b.rooms[g], b.cap[g], index[r.ID] = r.ID, sys.RoomBudgets[r.ID], int32(g)
	}
	for n := range sys.Net.Servers {
		b.group[n] = index[sys.Net.Servers[n].Room]
	}
	return b, nil
}

// globalBudget is the paper's single budget as a one-group Budget with
// backlog q.
func (s *System) globalBudget(q float64) *Budget {
	return &Budget{
		sys:   s,
		group: make([]int32, len(s.Net.Servers)),
		cap:   []units.Money{s.Budget},
		q:     []float64{q},
		theta: make([]float64, 1),
	}
}

// weight is the queue weight of server n's energy term in P2-B.
func (b *Budget) weight(n int) float64 { return b.q[b.group[n]] }

// checkWeights rejects negative or NaN backlogs before a solve.
func (b *Budget) checkWeights() error {
	for g, q := range b.q {
		if q < 0 || math.IsNaN(q) {
			return fmt.Errorf("core: BDMA needs Q ≥ 0, got %v for budget group %d", q, g)
		}
	}
	return nil
}

// thetas fills b.theta with θ_g = C_g − C̄_g at the given frequencies and
// price over the servers in the population mask (nil = all) and returns
// Θ = Σ_g θ_g.
func (b *Budget) thetas(freq Frequencies, price units.Price, active []bool) float64 {
	clear(b.theta)
	for n := range b.sys.Net.Servers {
		if active != nil && !active[n] {
			continue
		}
		b.theta[b.group[n]] += float64(b.sys.serverCost(n, freq[n], price))
	}
	total := 0.0
	for g := range b.theta {
		b.theta[g] -= float64(b.cap[g])
		total += b.theta[g]
	}
	return total
}

// Objective prices a candidate decision with reduced latency T_t:
// V·T_t + Σ_g Q_g·θ_g.
func (b *Budget) Objective(latency float64, freq Frequencies, st *trace.State, v float64) float64 {
	b.thetas(freq, st.Price, st.ServerActive)
	penalty := 0.0
	for g, theta := range b.theta {
		penalty += b.q[g] * theta
	}
	return v*latency + penalty
}

// Commit advances every queue by equation (21) with the performed
// frequencies' violations at the realized price and population, and
// returns Θ = Σ_g θ_g and the new total backlog.
func (b *Budget) Commit(freq Frequencies, price units.Price, active []bool) (theta, backlog float64) {
	theta = b.thetas(freq, price, active)
	for g := range b.q {
		b.q[g] = math.Max(b.q[g]+b.theta[g], 0)
	}
	return theta, b.Backlog()
}

// Backlog returns Σ_g Q_g(t), the single Q(t) under the global budget.
func (b *Budget) Backlog() float64 {
	total := 0.0
	for _, q := range b.q {
		total += q
	}
	return total
}

// RoomBacklogs returns each room's Q_m(t) keyed by room ID, or nil under
// the global budget.
func (b *Budget) RoomBacklogs() map[int]float64 {
	if b.rooms == nil {
		return nil
	}
	out := make(map[int]float64, len(b.rooms))
	for g, room := range b.rooms {
		out[room] = b.q[g]
	}
	return out
}

// Save writes the queue state into a checkpoint: the total backlog, and
// the per-room backlogs in per-room mode.
func (b *Budget) Save(cp *Checkpoint) {
	cp.Backlog = b.Backlog()
	cp.RoomBacklogs = b.RoomBacklogs()
}

// Restore sets the queues from a checkpoint written by Save for the same
// budget groups. Every backlog, and the rooms' total, must be finite and
// non-negative, and a per-room checkpoint must name exactly this
// budget's rooms; all of it is checked before any queue is written, so a
// rejected checkpoint leaves the budget untouched. A per-room
// checkpoint's total is derived, not read back.
func (b *Budget) Restore(cp Checkpoint) error {
	if err := checkBacklog("backlog", cp.Backlog); err != nil {
		return err
	}
	if (cp.RoomBacklogs != nil) != (b.rooms != nil) {
		return errors.New("core: checkpoint budget mode differs from the policy's")
	}
	if b.rooms == nil {
		b.q[0] = cp.Backlog
		return nil
	}
	if len(cp.RoomBacklogs) != len(b.rooms) {
		return fmt.Errorf("core: checkpoint has %d room backlogs, the system %d rooms", len(cp.RoomBacklogs), len(b.rooms))
	}
	total := 0.0
	for _, room := range b.rooms {
		q, ok := cp.RoomBacklogs[room]
		if !ok {
			return fmt.Errorf("core: checkpoint has no backlog for room %d", room)
		}
		if err := checkBacklog(fmt.Sprintf("room %d backlog", room), q); err != nil {
			return err
		}
		total += q
	}
	if err := checkBacklog("room backlog total", total); err != nil {
		return err
	}
	for g, room := range b.rooms {
		b.q[g] = cp.RoomBacklogs[room]
	}
	return nil
}

// checkV validates a penalty weight: V must be positive and finite for
// the drift-plus-penalty objective V·T + Σ_g Q_g·θ_g to trade latency
// against backlog at all.
func checkV(v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("core: V = %v, must be positive and finite", v)
	}
	return nil
}

// checkBacklog rejects a restored backlog that is negative, infinite or
// NaN.
func checkBacklog(what string, q float64) error {
	if !(q >= 0) || math.IsInf(q, 1) {
		return fmt.Errorf("core: checkpoint %s %v is not finite and non-negative", what, q)
	}
	return nil
}

// ValidateRoomBudgets checks that every budgeted room exists and every
// budget is non-negative.
func (s *System) ValidateRoomBudgets() error {
	if s.RoomBudgets == nil {
		return nil
	}
	known := make(map[int]bool, len(s.Net.Rooms))
	for _, r := range s.Net.Rooms {
		known[r.ID] = true
	}
	for room, budget := range s.RoomBudgets {
		if !known[room] {
			return fmt.Errorf("core: budget for unknown room %d", room)
		}
		if budget < 0 {
			return fmt.Errorf("core: negative budget %v for room %d", budget, room)
		}
	}
	for _, r := range s.Net.Rooms {
		if _, ok := s.RoomBudgets[r.ID]; !ok {
			return fmt.Errorf("core: room %d has no budget (all rooms need one in per-room mode)", r.ID)
		}
	}
	return nil
}

// RoomEnergyCosts returns each room's slot energy cost at the given
// frequencies and price, keyed by room ID: the quantity per-room budgets
// cap.
func (s *System) RoomEnergyCosts(freq Frequencies, price units.Price) map[int]units.Money {
	out := make(map[int]units.Money, len(s.Net.Rooms))
	for n := range s.Net.Servers {
		out[s.Net.Servers[n].Room] += s.serverCost(n, freq[n], price)
	}
	return out
}
