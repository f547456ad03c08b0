package core

import (
	"fmt"
	"math"

	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/solver"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// Per-room budgets are an extension beyond the paper's single time-average
// constraint: each edge-server room m carries its own budget C̄_m with its
// own virtual queue Q_m, the standard multi-constraint generalization of
// the drift-plus-penalty framework (Neely [30], Ch. 4). Enable it by
// setting System.RoomBudgets; the controller then drives every room's
// average energy cost under its own cap.

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
// frequencies and price.
func (s *System) RoomEnergyCosts(freq Frequencies, price units.Price) map[int]units.Money {
	out := make(map[int]units.Money, len(s.Net.Rooms))
	for n := range s.Net.Servers {
		srv := &s.Net.Servers[n]
		e := units.Over(
			units.Power(s.Energy[n].Power(freq[n]).Watts()*float64(srv.Cores)),
			units.Seconds(s.SlotSeconds),
		)
		out[srv.Room] += price.Cost(e)
	}
	return out
}

// RoomThetas returns θ_m(t) = C_{m,t} − C̄_m for every budgeted room.
func (s *System) RoomThetas(freq Frequencies, price units.Price) map[int]float64 {
	costs := s.RoomEnergyCosts(freq, price)
	out := make(map[int]float64, len(costs))
	for room, cost := range costs {
		out[room] = float64(cost - s.RoomBudgets[room])
	}
	return out
}

// RoomEnergyCostsActive is RoomEnergyCosts restricted to the servers in
// the population mask. Every room keeps an entry (a room whose servers
// are all removed costs zero) so per-room virtual queues keep updating
// across population changes; a nil mask delegates to RoomEnergyCosts.
func (s *System) RoomEnergyCostsActive(freq Frequencies, price units.Price, active []bool) map[int]units.Money {
	if active == nil {
		return s.RoomEnergyCosts(freq, price)
	}
	out := make(map[int]units.Money, len(s.Net.Rooms))
	for _, r := range s.Net.Rooms {
		out[r.ID] = 0
	}
	for n := range s.Net.Servers {
		if !active[n] {
			continue
		}
		srv := &s.Net.Servers[n]
		e := units.Over(
			units.Power(s.Energy[n].Power(freq[n]).Watts()*float64(srv.Cores)),
			units.Seconds(s.SlotSeconds),
		)
		out[srv.Room] += price.Cost(e)
	}
	return out
}

// RoomThetasActive is RoomThetas over the active-server population; a nil
// mask is bit-identical to RoomThetas.
func (s *System) RoomThetasActive(freq Frequencies, price units.Price, active []bool) map[int]float64 {
	costs := s.RoomEnergyCostsActive(freq, price, active)
	out := make(map[int]float64, len(costs))
	for room, cost := range costs {
		out[room] = float64(cost - s.RoomBudgets[room])
	}
	return out
}

// SolveP2BPerRoom solves P2-B with one queue weight per room: server n's
// energy term is weighted by qByRoom of its hosting room.
func (s *System) SolveP2BPerRoom(sel Selection, st *trace.State, v float64, qByRoom map[int]float64) (Frequencies, error) {
	qOf := func(n int) float64 { return qByRoom[s.Net.Servers[n].Room] }
	sc := borrowSums(len(s.Net.Servers))
	defer sc.release()
	return s.solveP2B(s.computeSums(sc.sums, sel, st), st, v, qOf, solveInstr{}, nil, nil)
}

// P2ObjectiveRooms evaluates V·T_t + Σ_m Q_m·Θ_m for a candidate decision.
func (s *System) P2ObjectiveRooms(sel Selection, freq Frequencies, st *trace.State, v float64, qByRoom map[int]float64) float64 {
	return s.p2ObjectiveRooms(s.ReducedLatency(sel, freq, st).Value(), freq, st, v, qByRoom)
}

// p2ObjectiveRooms is P2ObjectiveRooms for a decision whose reduced
// latency T_t is already known.
func (s *System) p2ObjectiveRooms(latency float64, freq Frequencies, st *trace.State, v float64, qByRoom map[int]float64) float64 {
	penalty := 0.0
	for room, theta := range s.RoomThetasActive(freq, st.Price, st.ServerActive) {
		penalty += qByRoom[room] * theta
	}
	return v*latency + penalty
}

// BDMARooms runs Algorithm 2 under per-room budgets: the alternation is
// identical, but P2-B weighs each server's energy by its room's queue and
// the objective sums the per-room drift terms.
func (s *System) BDMARooms(st *trace.State, v float64, qByRoom map[int]float64, cfg BDMAConfig, src *rng.Source) (BDMAResult, error) {
	return s.bdmaRoomsScratch(st, v, qByRoom, cfg, src, nil, solveInstr{}, nil, nil)
}

// bdmaRoomsScratch is BDMARooms with an optional reusable P2A, solve
// instruments, worker pool, and slot deadline (see bdmaScratch).
func (s *System) bdmaRoomsScratch(st *trace.State, v float64, qByRoom map[int]float64, cfg BDMAConfig, src *rng.Source, scratch *P2A, in solveInstr, pool *par.Pool, dl *solver.Deadline) (BDMAResult, error) {
	if err := s.ValidateRoomBudgets(); err != nil {
		return BDMAResult{}, err
	}
	if s.RoomBudgets == nil {
		return BDMAResult{}, fmt.Errorf("core: BDMARooms on a system without RoomBudgets")
	}
	for room, q := range qByRoom {
		if q < 0 || math.IsNaN(q) {
			return BDMAResult{}, fmt.Errorf("core: negative queue weight %v for room %d", q, room)
		}
	}
	solve := func(compute []float64, sdl *solver.Deadline) (Frequencies, error) {
		qOf := func(n int) float64 { return qByRoom[s.Net.Servers[n].Room] }
		return s.solveP2B(compute, st, v, qOf, in, pool, sdl)
	}
	objective := func(latency float64, freq Frequencies) float64 {
		return s.p2ObjectiveRooms(latency, freq, st, v, qByRoom)
	}
	res, err := s.bdmaLoop(st, cfg, src, solve, objective, scratch, in, pool, dl)
	if err != nil {
		return BDMAResult{}, err
	}
	res.RoomThetas = s.RoomThetasActive(res.Freq, st.Price, st.ServerActive)
	// The scalar Theta reports the aggregate violation for logging.
	res.Theta = 0
	for _, theta := range res.RoomThetas {
		res.Theta += theta
	}
	return res, nil
}
