// Sweep dynamics: the sub-quadratic half of the Engine.
//
// The exact CGBA loop re-scores every player each iteration to find the
// single largest improvement, so on the paper's topology — a small,
// shared resource set, a few stations and server rooms covering the
// whole area — its solve cost grows quadratically with the population.
// The sweep loop moves a player as soon as its score finds it
// dissatisfied:
//
//   - Incremental congestion sums. The per-resource loads p_r(z) are
//     maintained in O(resources-touched) per move (Engine.move), and
//     every score reads them directly.
//
//   - Gauss–Seidel passes with exact certification. Players are visited
//     in index order and each dissatisfied player moves to its best
//     response immediately. Every score finds the exact minimum over the
//     player's full strategy set with the exact loop's arithmetic and
//     order, so a pass that moves nobody is the certification: the
//     returned profile is a certified λ-equilibrium, and Theorem 2's
//     2.62/(1−8λ) approximation bound applies.
//
// No strategy is pruned: a static top-16 shortlist needed half again as
// many moves as the full-width sweep, plus a table build per solve
// (DESIGN.md §12). The scan is factored instead. A P2-A strategy (k, n)
// uses exactly C_n, B_k^A and B_k^F, so its cost is (C_n + A_k) + F_k.
// For a player the Builder gave a factor description (Builder.endPlayer:
// streamed with AddPair, at least 16 pairs, more pairs than stations
// plus distinct servers), cheapest reads one term per distinct server
// and two per station — 18 terms where the arena holds 83 at 1000
// DefaultSpec devices — and takes the first station with the least
// (min C + A) + F. x ↦ (x + A) + F is monotone under rounding, so that
// is the least pair cost, and re-scanning the station's pairs in order
// for the first whose sum equals it keeps the arena scan's strict-less,
// lowest-index choice bit for bit. Every other player streams its arena
// span.
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

// move switches player i to strategy s without bounds checks, updating
// the loads in O(resources-touched). The load updates follow
// Game.applyMove's order (all old uses removed, then all new added), so
// the load bits match the one-shot path's. Callers count the move.
func (e *Engine) move(i, s int) {
	g := e.g
	for _, u := range g.strategyUses(i, e.profile[i]) {
		e.loads[u.res] -= u.w
	}
	e.profile[i] = s
	for _, u := range g.strategyUses(i, s) {
		e.loads[u.res] += u.w
	}
}

// scan is one goroutine's best-response scratch: the saved load bits
// of sweepScore's in-place removal, the factored scan's per-server
// terms, and the count of use terms the scans read (the engine's
// ScanTerms ledger, merged like the move count). The serial solve and
// each shard sweep own one, so a parallel region shares none.
type scan struct {
	saveRes  []int32
	saveLoad []float64
	cterm    []float64
	terms    int64
}

// resize sizes the scratch for g, reusing its memory.
func (sc *scan) resize(g *Game) {
	sc.saveRes = resizeInt32(sc.saveRes, g.maxUses)
	sc.saveLoad = resizeFloat(sc.saveLoad, g.maxUses)
	sc.cterm = resizeFloat(sc.cterm, g.maxDist)
}

// sweepScore evaluates player i against the current loads: its current
// cost and its best response over its whole strategy set. The current
// strategy's contribution is removed from the loads in place — original
// bits saved into the scratch and restored before returning, since
// (a−b)+b is not a floating-point identity — so each candidate cost is
// m_r·p_{i,r}·((loads[r]−w_cur)+w), the expression Game.bestResponse
// evaluates. The exact loop and every sweep share this one function, so
// a quiet sweep agrees bit for bit with the exact loop's equilibrium
// test.
func (e *Engine) sweepScore(i int, sc *scan) (cur float64, best int32, bestCost float64) {
	g := e.g
	cs := g.strOff[i] + int32(e.profile[i])
	cur = 0.0
	for _, u := range g.uses[g.useOff[cs]:g.useOff[cs+1]] {
		cur += u.wm * e.loads[u.res]
	}
	saved := 0
	for _, u := range g.uses[g.useOff[cs]:g.useOff[cs+1]] {
		sc.saveRes[saved] = int32(u.res)
		sc.saveLoad[saved] = e.loads[u.res]
		saved++
		e.loads[u.res] -= u.w
	}
	best, bestCost = sc.cheapest(g, e.loads, i)
	for k := 0; k < saved; k++ {
		e.loads[sc.saveRes[k]] = sc.saveLoad[k]
	}
	return cur, best, bestCost
}

// cheapest returns player i's minimum-cost strategy against loads: the
// strict-less argmin of Σ_u wm·(loads+w) over its strategies, so ties
// resolve to the lower index, or −1 when no cost is below +Inf. A player
// without a factor description streams its contiguous arena span once;
// strategy boundaries come from the offset slice, so no per-strategy
// slice headers are materialized.
func (sc *scan) cheapest(g *Game, loads []float64, i int) (best int32, bestCost float64) {
	if lo, hi := g.facStOff[i], g.facStOff[i+1]; lo < hi {
		return sc.factored(g, loads, i, g.facSt[lo:hi])
	}
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
			c += u.wm * (loads[u.res] + u.w)
		}
		if c < bestCost {
			best, bestCost = int32(s), c
		}
	}
	sc.terms += int64(len(uses))
	return best, bestCost
}

// factored is cheapest for a player with a factor description. Every
// strategy is a pair (k, n) costing (C_n + A_k) + F_k, the generic
// scan's sum in its use order. It reads one C term per distinct server
// and the A and F terms once per station, forms v_k = (min C over k's
// servers + A_k) + F_k, and takes the first station with the least v.
// x ↦ (x + A) + F is monotone under rounding, so that v is the least
// pair cost, and no pair of an earlier station attains it. Two servers
// of the station may still round to the same sum, so the station's pairs
// are re-scanned in order for the first whose sum equals it: the
// generic scan's strict-less, lowest-index choice, bit for bit. Each
// term is rounded on its own (the conversions forbid a fused
// multiply-add), so the re-scan's sums equal the first loop's.
func (sc *scan) factored(g *Game, loads []float64, i int, stations []facStation) (best int32, bestCost float64) {
	dist := g.facDist[g.facDistOff[i]:g.facDistOff[i+1]]
	cterm := sc.cterm[:len(dist)]
	for d, pos := range dist {
		u := &g.uses[pos]
		cterm[d] = float64(u.wm * (loads[u.res] + u.w))
	}
	sc.terms += int64(len(dist) + 2*len(stations))
	at, bestCost := -1, math.Inf(1)
	var bestA, bestF float64
	for k := range stations {
		st := &stations[k]
		minC := math.Inf(1)
		for _, c := range cterm[st.lo:st.hi] {
			if c < minC {
				minC = c
			}
		}
		a, f := &g.uses[st.a], &g.uses[st.f]
		aTerm := float64(a.wm * (loads[a.res] + a.w))
		fTerm := float64(f.wm * (loads[f.res] + f.w))
		if v := (minC + aTerm) + fTerm; v < bestCost {
			at, bestCost, bestA, bestF = k, v, aTerm, fTerm
		}
	}
	if at < 0 {
		return -1, bestCost
	}
	st := &stations[at]
	for j, c := range cterm[st.lo:st.hi] {
		if (c+bestA)+bestF == bestCost {
			return st.s0 + int32(j), bestCost
		}
	}
	panic("game: factored scan lost its minimum")
}

// greedyFill seeds the sweep dynamics: loads start empty and players
// 0..n−1 place sequentially on their best response against the players
// placed so far. Each player adds its uses exactly once in index order,
// so the resulting loads carry the same bits as a from-scratch reload of
// the final profile.
func (e *Engine) greedyFill() {
	g := e.g
	clearFloats(e.loads)
	for i := range e.profile {
		best, _ := e.scan.cheapest(g, e.loads, i)
		e.profile[i] = int(best)
		for _, u := range g.strategyUses(i, int(best)) {
			e.loads[u.res] += u.w
		}
	}
}
