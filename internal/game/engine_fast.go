// Sweep dynamics: the sub-quadratic half of the Engine.
//
// The exact CGBA loop re-scores every player each iteration to find the
// single largest improvement, and dirties every incident player on each
// move. On the paper's topology the resource set is small and shared (a
// few stations and server rooms cover the whole area), so each move
// dirties nearly everyone and the solve cost grows quadratically with
// the population. The sweep loop avoids both costs:
//
//   - Incremental congestion sums. The per-resource loads p_r(z) are
//     maintained in O(resources-touched) per move; the sweep scores
//     candidates directly against them (fastMove) and skips the exact
//     loop's incidence-walk invalidation entirely — no O(n) dirty
//     fan-out per move.
//
//   - Gauss–Seidel passes with exact certification. Players are visited
//     in index order and each dissatisfied player moves to its best
//     response immediately. Every score reads the player's full strategy
//     set from the game arena with refresh's arithmetic and order, so a
//     pass that moves nobody is the certification: the returned profile
//     is a certified λ-equilibrium, and Theorem 2's 2.62/(1−8λ)
//     approximation bound applies.
//
// The loop scans every strategy because pruning never paid here: under
// DefaultSpec each station reaches one 8-server room, so a player has at
// most 48 (station, server) pairs (27 on average at 1000 devices), and a
// static top-16 shortlist needed half again as many moves as the
// full-width sweep, plus a table build per solve (DESIGN.md §12).
//
// The sweep body is Engine.sweep (engine_shard.go); an unsharded solve
// runs it as CGBASharded with a nil plan. CGBAConfig.Exact, non-default
// pivots and TrackObjective take the exact loop (engine.go) instead. The
// unsharded sweep is serial and deterministic: same game bits, config,
// and initial profile give the same result. engine_fast_test.go and
// FuzzIncrementalBestResponseEquivalence enforce this against a
// reference Gauss–Seidel loop.
package game

import (
	"math"
)

// fastSweepCheckMask throttles deadline polls inside a sweep: one poll
// every 256 players (plus one at each pass start). The poll count is a
// function of the player count and sweep structure alone, so counted
// checkpoint budgets stay deterministic.
const fastSweepCheckMask = 255

// fastMove switches player i to strategy s, updating only the loads —
// O(resources-touched), no incidence-walk invalidation. The load updates
// follow Game.applyMove's order (all old uses removed, then all new
// added) so the load bits match the exact path's. Callers own cache
// consistency and count the move.
func (e *Engine) fastMove(i, s int) {
	g := e.g
	for _, u := range g.strategyUses(i, e.profile[i]) {
		e.loads[u.res] -= u.w
	}
	e.profile[i] = s
	for _, u := range g.strategyUses(i, s) {
		e.loads[u.res] += u.w
	}
}

// sweepScore evaluates player i against the current loads: its current
// cost and its best response over its whole strategy set. The current
// strategy's contribution is removed from the loads in place — original
// bits saved into saveRes/saveLoad and restored before returning, since
// (a−b)+b is not a floating-point identity — so each candidate cost is
// m_r·p_{i,r}·((loads[r]−w_cur)+w), the expression Game.bestResponse
// evaluates. refresh and every sweep share this one function, so a quiet
// sweep agrees bit for bit with the exact loop's equilibrium test.
func (e *Engine) sweepScore(i int, saveRes []int32, saveLoad []float64) (cur float64, best int32, bestCost float64) {
	g := e.g
	cs := g.strOff[i] + int32(e.profile[i])
	cur = 0.0
	for _, u := range g.uses[g.useOff[cs]:g.useOff[cs+1]] {
		cur += u.wm * e.loads[u.res]
	}
	saved := 0
	for _, u := range g.uses[g.useOff[cs]:g.useOff[cs+1]] {
		saveRes[saved] = int32(u.res)
		saveLoad[saved] = e.loads[u.res]
		saved++
		e.loads[u.res] -= u.w
	}
	best, bestCost = e.cheapest(i)
	for k := 0; k < saved; k++ {
		e.loads[saveRes[k]] = saveLoad[k]
	}
	return cur, best, bestCost
}

// cheapest returns player i's minimum-cost strategy against the current
// loads (strict-less argmin, so ties resolve to the lower index). It
// streams the player's contiguous arena span once; strategy boundaries
// come from the offset slice, so no per-strategy slice headers are
// materialized.
func (e *Engine) cheapest(i int) (best int32, bestCost float64) {
	g := e.g
	first, last := g.playerStrategies(i)
	base := g.useOff[first]
	uses := g.uses[base:g.useOff[last]]
	offs := g.useOff[first : last+1]
	best, bestCost = -1, math.Inf(1)
	k := 0
	for s := 0; s < len(offs)-1; s++ {
		end := int(offs[s+1] - base)
		c := 0.0
		for ; k < end; k++ {
			u := &uses[k]
			c += u.wm * (e.loads[u.res] + u.w)
		}
		if c < bestCost {
			best, bestCost = int32(s), c
		}
	}
	return best, bestCost
}

// greedyFill seeds the sweep dynamics: loads start empty and players
// 0..n−1 place sequentially on their best response against the players
// placed so far. Each player adds its uses exactly once in index order,
// so the resulting loads carry the same bits as a from-scratch reload of
// the final profile. Caches are left invalid, matching Reset.
func (e *Engine) greedyFill() {
	g := e.g
	clearFloats(e.loads)
	for i := range e.profile {
		best, _ := e.cheapest(i)
		e.profile[i] = int(best)
		for _, u := range g.strategyUses(i, int(best)) {
			e.loads[u.res] += u.w
		}
	}
	e.invalidateAll()
}
